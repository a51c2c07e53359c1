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
//! Entries are not copied, in or out. An entry is its *record*,
//! `[key len u16][key][value len u32][value]`, which is both how the
//! snapshot encodes it and what a put is after its tag byte: a put's
//! record is a [`Bytes::slice`] of the request buffer it arrived in, a
//! restored entry's is a slice of the verified snapshot piece it arrived
//! in, a bucket's part is the list of its records, and reads answer with
//! slices of the stored value. The price is memory: a record pins the
//! whole buffer it is a slice of — a put's request, with its tag byte and
//! anything after the value, or a fetched snapshot's piece, which a piece
//! of several records keeps allocated until every entry from it has been
//! overwritten.
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

use bytes::{BufMut, Bytes, BytesMut};
use spider::{Application, Part};
use std::ops::Range;

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
    ///
    /// # Panics
    ///
    /// Panics if the key is longer than 65 535 bytes or the value longer
    /// than 4 294 967 295 bytes: the format writes their lengths as a
    /// `u16` and a `u32`.
    pub fn encode(&self) -> Bytes {
        let len = match self {
            KvOp::Put { key, value } => 1 + 2 + key.len() + 4 + value.len(),
            KvOp::Get { key } => 1 + 2 + key.len(),
        };
        let mut buf = BytesMut::with_capacity(len);
        match self {
            KvOp::Put { key, value } => {
                buf.put_u8(b'P');
                buf.put_u16(key_len(key));
                buf.put_slice(key);
                let vlen = u32::try_from(value.len()).unwrap_or_else(|_| {
                    panic!("a value is at most {} bytes, not {}", u32::MAX, value.len())
                });
                buf.put_u32(vlen);
                buf.put_slice(value);
            }
            KvOp::Get { key } => {
                buf.put_u8(b'G');
                buf.put_u16(key_len(key));
                buf.put_slice(key);
            }
        }
        debug_assert_eq!(buf.len(), len, "the buffer was sized exactly");
        buf.freeze()
    }

    /// Parses an operation; `None` for malformed input.
    pub fn decode(buf: &[u8]) -> Option<KvOp> {
        Some(match Fields::of(buf)? {
            Fields::Put { key, value } => {
                KvOp::Put { key: buf[key].to_vec(), value: buf[value].to_vec() }
            }
            Fields::Get { key } => KvOp::Get { key: buf[key].to_vec() },
        })
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

/// The length of `key` as the wire format writes it.
fn key_len(key: &[u8]) -> u16 {
    u16::try_from(key.len())
        .unwrap_or_else(|_| panic!("a key is at most {} bytes, not {}", u16::MAX, key.len()))
}

/// Where the field after the `width`-byte big-endian length at `buf[at..]`
/// lies; `None` if `buf` ends first.
fn field(buf: &[u8], at: usize, width: usize) -> Option<Range<usize>> {
    let len = buf.get(at..at + width)?.iter().fold(0, |len, &b| len << 8 | usize::from(b));
    let field = at + width..at + width + len;
    buf.get(field.clone()).map(|_| field)
}

/// Where the key and the value of the record `[key len u16][key][value
/// len u32][value]` at `buf[at..]` lie; `None` unless a whole record is
/// there. Bytes after the value are not part of it. The one parser of the
/// record layout: a put is a tag byte and a record, and so is every entry
/// of a snapshot.
fn record(buf: &[u8], at: usize) -> Option<(Range<usize>, Range<usize>)> {
    let key = field(buf, at, 2)?;
    let value = field(buf, key.end, 4)?;
    Some((key, value))
}

/// Where the fields of an encoded [`KvOp`] lie in its buffer: what the
/// store slices out of the buffer instead of copying.
enum Fields {
    Put { key: Range<usize>, value: Range<usize> },
    Get { key: Range<usize> },
}

impl Fields {
    /// Parses the wire format of [`KvOp::encode`], a tag byte and then a
    /// record (put) or a key (get); `None` for malformed input. Bytes
    /// after the operation are ignored.
    fn of(op: &[u8]) -> Option<Fields> {
        match op.first()? {
            b'P' => record(op, 1).map(|(key, value)| Fields::Put { key, value }),
            b'G' => field(op, 1, 2).map(|key| Fields::Get { key }),
            _ => None,
        }
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

/// One entry as the snapshot encodes it, `[key len u16][key][value len
/// u32][value]`, which is what a put is after its tag byte: a put's record
/// is a slice of its request and a restored entry's a slice of a snapshot
/// piece ([`Record::parse`]).
#[derive(Debug, Clone)]
struct Record(Bytes);

impl Record {
    /// The record at the front of `bytes[at..]` and where it ends; `None`
    /// if the bytes there are not one whole record.
    fn parse(bytes: &Bytes, at: usize) -> Option<(Record, usize)> {
        let (_, value) = record(bytes, at)?;
        Some((Record(bytes.slice(at..value.end)), value.end))
    }

    fn key(&self) -> &[u8] {
        let klen = usize::from(u16::from_be_bytes([self.0[0], self.0[1]]));
        &self.0[2..2 + klen]
    }

    fn value(&self) -> &[u8] {
        &self.0[2 + self.key().len() + 4..]
    }

    /// The value as a slice of the buffer the record is a slice of.
    fn value_bytes(&self) -> Bytes {
        self.0.slice(2 + self.key().len() + 4..)
    }
}

/// The records whose keys hash to one bucket, in key order, with the
/// snapshot part holding them while no write has touched the bucket since
/// it was built (or since it was restored from that part).
///
/// A sorted `Vec`: a bucket holds `len / BUCKETS` records, so a put's
/// shift is short, and a restored bucket is the list of its records as
/// they arrive, in one allocation.
#[derive(Debug, Clone, Default)]
struct Bucket {
    records: Vec<Record>,
    part: Option<Part>,
}

impl Bucket {
    /// Where `key`'s record is, or where it would go.
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        self.records.binary_search_by(|record| record.key().cmp(key))
    }

    fn get(&self, key: &[u8]) -> Option<&Record> {
        self.find(key).ok().and_then(|at| self.records.get(at))
    }
}

/// The records of bucket `index` as slices of `pieces`, if their
/// concatenation is what [`Application::snapshot_parts`] makes of them:
/// every piece whole records, every key hashing to `index`, the keys
/// strictly ascending. Then the pieces can stand in for the bucket's
/// records.
fn records_of(pieces: &[Bytes], index: usize) -> Option<Vec<Record>> {
    // A piece is usually one record.
    let mut records: Vec<Record> = Vec::with_capacity(pieces.len());
    for piece in pieces {
        let mut at = 0;
        while at < piece.len() {
            let (record, end) = Record::parse(piece, at)?;
            let ascending = records.last().is_none_or(|last| last.key() < record.key());
            if bucket_of(record.key()) != index || !ascending {
                return None;
            }
            records.push(record);
            at = end;
        }
    }
    Some(records)
}

/// A deterministic, snapshotable key-value store.
///
/// Entries live in 256 buckets (a private constant) chosen by an FNV-1a
/// hash of the key. The snapshot is `[count][bucket 0 entries]…[bucket
/// 255 entries][ops_applied]` — the count, each bucket and the counter one
/// [`Part`] each, no per-part header — and a bucket keeps its part until
/// a `put` lands in it, so [`Application::snapshot_parts`] hashes only the
/// buckets written since the last call. Which bucket a key is in, and the
/// order inside a bucket, depend on the keys alone: equal contents give
/// equal parts whatever the history. Keys chosen to collide can make a
/// bucket large and its puts and re-hashing slow; they cannot make two
/// correct replicas disagree.
///
/// An entry is its *record*, the bytes the snapshot encodes it as, and a
/// record is a slice of the buffer it arrived in (see the [crate
/// docs](crate)): a put's of its request, a restored entry's of the
/// snapshot piece. A bucket's part is the list of its records in key
/// order ([`Part::from_pieces`]), so a checkpoint copies no byte.
/// [`Application::restore`] keeps the pieces it is handed: a piece of
/// whole records is sliced in place, and only a part whose pieces split a
/// record is joined into one buffer first; it keeps the parts themselves
/// as the buckets' parts, so the first checkpoint after a restore hashes
/// nothing. It accepts only the contents this store would encode —
/// `BUCKETS + 2` parts, every key in its own bucket, keys strictly
/// ascending, the count matching — and otherwise leaves the store as it
/// was.
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
        self.buckets[bucket_of(key)].get(key).map(Record::value)
    }

    /// The reply to a get of `key`: a slice of the stored value.
    fn read(&self, key: &[u8]) -> Bytes {
        let record = self.buckets[bucket_of(key)].get(key);
        record.map_or(Bytes::from_static(NOT_FOUND), Record::value_bytes)
    }

    fn put(&mut self, record: Record) {
        let bucket = &mut self.buckets[bucket_of(record.key())];
        bucket.part = None;
        match bucket.find(record.key()) {
            Ok(at) => bucket.records[at] = record,
            Err(at) => {
                bucket.records.insert(at, record);
                self.len += 1;
            }
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
        let mut records: Vec<&Record> = self.buckets.iter().flat_map(|b| &b.records).collect();
        records.sort_unstable_by(|a, b| a.key().cmp(b.key()));
        let mut b = spider_crypto::Digest::builder().u64(self.len as u64);
        for record in records {
            b = b.bytes(record.key()).bytes(record.value());
        }
        b.finish()
    }
}

impl Application for KvStore {
    fn execute(&mut self, op: &Bytes) -> Bytes {
        self.ops_applied += 1;
        match Fields::of(op) {
            Some(Fields::Put { value, .. }) => {
                // All but the tag byte, up to the value's last byte: bytes
                // after the value are not part of the record.
                self.put(Record(op.slice(1..value.end)));
                Bytes::from_static(OK)
            }
            Some(Fields::Get { key }) => self.read(&op[key]),
            None => Bytes::from_static(MALFORMED),
        }
    }

    fn execute_read(&self, op: &[u8]) -> Bytes {
        match Fields::of(op) {
            Some(Fields::Get { key }) => self.read(&op[key]),
            // Writes through the read path are rejected, not applied.
            Some(Fields::Put { .. }) | None => Bytes::from_static(MALFORMED),
        }
    }

    fn snapshot(&self) -> Bytes {
        let records = || self.buckets.iter().flat_map(|b| &b.records);
        let mut buf = BytesMut::with_capacity(4 + records().map(|r| r.0.len()).sum::<usize>() + 8);
        buf.put_u32(self.len as u32);
        records().for_each(|record| buf.put_slice(&record.0));
        buf.put_u64(self.ops_applied);
        buf.freeze()
    }

    fn snapshot_parts(&mut self) -> Vec<Part> {
        let mut parts = Vec::with_capacity(BUCKETS + 2);
        parts.push(Part::new(Bytes::from((self.len as u32).to_be_bytes().to_vec())));
        for Bucket { records, part } in &mut self.buckets {
            let part =
                part.get_or_insert_with(|| Part::from_pieces(records.iter().map(|r| r.0.clone())));
            parts.push(part.clone());
        }
        parts.push(Part::new(Bytes::from(self.ops_applied.to_be_bytes().to_vec())));
        parts
    }

    fn restore(&mut self, parts: &[Part]) -> bool {
        let [count, buckets @ .., ops] = parts else {
            return false;
        };
        let (Ok(count), Ok(ops)) =
            (<[u8; 4]>::try_from(&count.to_bytes()[..]), <[u8; 8]>::try_from(&ops.to_bytes()[..]))
        else {
            return false;
        };
        if buckets.len() != BUCKETS {
            return false;
        }
        let mut restored = Vec::with_capacity(BUCKETS);
        let mut len = 0;
        for (index, part) in buckets.iter().enumerate() {
            // Pieces of whole records are kept as they are; a part cut
            // inside a record is joined once and sliced instead.
            let records =
                records_of(part.pieces(), index).or_else(|| records_of(&[part.to_bytes()], index));
            let Some(records) = records else {
                return false;
            };
            len += records.len();
            restored.push(Bucket { records, part: Some(part.clone()) });
        }
        if len != u32::from_be_bytes(count) as usize {
            return false;
        }
        self.buckets = restored;
        self.len = len;
        self.ops_applied = u64::from_be_bytes(ops);
        true
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
    use std::collections::BTreeMap;

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
        for op in [&b""[..], b"X123", &[b'P', 0xff, 0xff, 1]] {
            assert_eq!(&s.execute(&Bytes::copy_from_slice(op))[..], MALFORMED);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn sized_put_hits_exact_payload_size() {
        let op = KvOp::sized_put(b"key-000001", 200, b'x');
        assert_eq!(op.encode().len(), 200);
    }

    #[test]
    #[should_panic(expected = "a key is at most 65535 bytes, not 65536")]
    fn a_key_too_long_for_its_length_field_panics() {
        let _ = KvOp::get(&vec![b'k'; usize::from(u16::MAX) + 1]).encode();
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut a = KvStore::new();
        for i in 0..50u32 {
            a.execute(&KvOp::put(format!("k{i}").as_bytes(), vec![i as u8; 10]).encode());
        }
        let mut b = KvStore::new();
        assert!(b.restore(&a.snapshot_parts()));
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(b.get(b"k7"), Some(&[7u8; 10][..]));
        assert_eq!(b.ops_applied, 50);
    }

    #[test]
    fn entries_and_replies_are_slices_of_the_request() {
        let mut s = KvStore::new();
        let put = KvOp::put(b"k", vec![5; 32]).encode();
        s.execute(&put);
        let stored = s.get(b"k").unwrap().as_ptr();
        assert_eq!(stored, put[put.len() - 32..].as_ptr(), "the value was not copied");
        let reply = s.execute(&KvOp::get(b"k").encode());
        assert_eq!(reply.as_ptr(), stored, "nor is the reply to a read");
        let weak = s.execute_read(&KvOp::get(b"k").encode());
        assert_eq!(weak.as_ptr(), stored);
    }

    /// A store with one entry in each of two buckets, and its parts.
    fn two_buckets() -> (KvStore, Vec<Part>, [usize; 2]) {
        let mut s = KvStore::new();
        let keys: Vec<Vec<u8>> = (0u32..).map(|i| format!("k{i}").into_bytes()).take(8).collect();
        let (a, b) = (&keys[0], keys.iter().find(|k| bucket_of(k) != bucket_of(&keys[0])).unwrap());
        s.execute(&KvOp::put(a, vec![1]).encode());
        s.execute(&KvOp::put(b, vec![2]).encode());
        let parts = s.snapshot_parts();
        (s, parts, [bucket_of(a), bucket_of(b)])
    }

    #[test]
    fn restore_rejects_a_cut_it_would_not_make() {
        let (_, parts, [a, b]) = two_buckets();
        let (a, b) = (1 + a, 1 + b);
        let mut cuts: Vec<(&str, Vec<Part>)> = Vec::new();
        cuts.push(("one part short", parts[..parts.len() - 1].to_vec()));
        let mut longer = parts.clone();
        longer.insert(1, Part::new(Bytes::new()));
        cuts.push(("one part too many", longer));
        let mut moved = parts.clone();
        moved.swap(a, b);
        cuts.push(("keys in another bucket", moved));
        let mut count = parts.clone();
        count[0] = Part::new(Bytes::from(3u32.to_be_bytes().to_vec()));
        cuts.push(("a count that is not the entries'", count));
        let mut trailing = parts.clone();
        trailing[a] = Part::new(Bytes::from([&parts[a].to_bytes()[..], &[0]].concat()));
        cuts.push(("bytes after the last entry", trailing));
        // Two keys of one bucket, written in the wrong order.
        let mut keys = (0u32..).map(|i| format!("x{i}").into_bytes());
        let first = keys.next().unwrap();
        let second = keys.find(|k| bucket_of(k) == bucket_of(&first)).unwrap();
        let (lo, hi) = if first < second { (first, second) } else { (second, first) };
        let entry =
            |k: &[u8]| [&(k.len() as u16).to_be_bytes()[..], k, &0u32.to_be_bytes()].concat();
        let at = 1 + bucket_of(&lo);
        let count = 2 + 2 - [a, b].iter().filter(|&&i| i == at).count() as u32;
        let bucket_of_two = |order: [&[u8]; 2]| {
            let mut cut = parts.clone();
            cut[at] = Part::new(Bytes::from([entry(order[0]), entry(order[1])].concat()));
            cut[0] = Part::new(Bytes::from(count.to_be_bytes().to_vec()));
            cut
        };
        assert!(KvStore::new().restore(&bucket_of_two([&lo, &hi])), "in order, the cut is fine");
        cuts.push(("keys out of order", bucket_of_two([&hi, &lo])));
        cuts.push(("a repeated key", bucket_of_two([&lo, &lo])));
        for (what, cut) in cuts {
            let (mut store, before, _) = two_buckets();
            store.execute(&KvOp::put(b"mine", vec![9]).encode());
            let digest = store.state_digest();
            assert!(!store.restore(&cut), "accepted {what}");
            assert_eq!(store.state_digest(), digest, "{what} changed the store");
            assert_eq!(store.get(b"mine"), Some(&[9][..]));
            assert_ne!(store.snapshot_parts(), before);
        }
    }

    /// A store of `n` puts of 20-byte values, and its parts.
    fn filled(n: u32) -> (KvStore, Vec<Part>) {
        let mut s = KvStore::new();
        for i in 0..n {
            s.execute(&KvOp::put(format!("k{i}").as_bytes(), vec![i as u8; 20]).encode());
        }
        let parts = s.snapshot_parts();
        (s, parts)
    }

    #[test]
    fn a_restored_store_keeps_the_pieces_it_was_handed() {
        let (a, parts) = filled(600);
        let pieces: BTreeMap<*const u8, usize> = parts[1..=BUCKETS]
            .iter()
            .flat_map(Part::pieces)
            .map(|piece| (piece.as_ptr(), piece.len()))
            .collect();
        let mut b = KvStore::new();
        assert!(b.restore(&parts));
        let records: Vec<&Record> = b.buckets.iter().flat_map(|b| &b.records).collect();
        assert_eq!(records.len(), 600);
        for record in records {
            let piece = pieces.get(&record.0.as_ptr());
            assert_eq!(piece, Some(&record.0.len()), "{record:?} is a source piece");
        }
        let again = b.snapshot_parts();
        let reencoded = again.iter().zip(&parts).skip(1).take(BUCKETS);
        assert_eq!(
            reencoded.filter(|(n, p)| n.pieces().as_ptr() != p.pieces().as_ptr()).count(),
            0
        );
        assert_eq!(again, parts);
        assert_eq!((b.map_digest(), b.state_digest()), (a.map_digest(), a.state_digest()));
    }

    #[test]
    fn a_part_restores_however_its_pieces_are_cut() {
        let (a, parts) = filled(600);
        let at = 1 + (0..BUCKETS).max_by_key(|&i| parts[1 + i].pieces().len()).unwrap();
        let bytes = parts[at].to_bytes();
        let first = parts[at].pieces()[0].len();
        assert!(parts[at].pieces().len() >= 3, "a bucket of several records");
        let cuts = [
            ("flattened into one piece", Part::new(bytes.clone())),
            ("cut inside a key", Part::from_pieces([bytes.slice(..3), bytes.slice(3..)])),
            (
                "cut inside a value, and on a boundary",
                Part::from_pieces([
                    bytes.slice(..first - 1),
                    bytes.slice(first - 1..first),
                    bytes.slice(first..),
                ]),
            ),
            ("one byte a piece", Part::from_pieces((0..bytes.len()).map(|i| bytes.slice(i..=i)))),
        ];
        for (what, cut) in cuts {
            assert_eq!(cut, parts[at], "{what}: the same bytes");
            let mut parts = parts.clone();
            parts[at] = cut;
            let mut b = KvStore::new();
            assert!(b.restore(&parts), "{what}");
            assert_eq!(b.map_digest(), a.map_digest(), "{what}");
            assert_eq!(b.state_digest(), a.state_digest(), "{what}");
            assert_eq!(b.snapshot_parts(), parts, "{what}");
        }
    }

    #[test]
    fn bytes_after_a_value_are_not_part_of_the_record() {
        let clean = KvOp::put(b"k", vec![5; 32]).encode();
        let trailing = Bytes::from([&clean[..], b"trailing"].concat());
        let (mut a, mut b) = (KvStore::new(), KvStore::new());
        a.execute(&clean);
        b.execute(&trailing);
        assert_eq!(b.get(b"k"), Some(&[5; 32][..]));
        assert_eq!(b.snapshot_parts(), a.snapshot_parts());
        assert_eq!(b.state_digest(), a.state_digest());
        assert_eq!(b.snapshot(), a.snapshot());
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
            prop_assert!(b.restore(&a.snapshot_parts()));
            prop_assert_eq!(a.state_digest(), b.state_digest());
        }

        /// The parts are a function of the contents: whatever the order
        /// of puts and wherever snapshots were taken in between, they
        /// equal those of a store restored from them and of one filled in
        /// key order; a snapshot re-encodes at most one
        /// bucket per put since the previous one.
        #[test]
        fn parts_depend_on_contents_alone(steps in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..4),
             prop::collection::vec(any::<u8>(), 0..24),
             0u8..8),
            1..120,
        )) {
            /// Parts of `now` that are not the very piece list `prev` holds.
            fn reencoded(prev: &[Part], now: &[Part]) -> usize {
                prev.iter().zip(now).filter(|(p, n)| p.pieces().as_ptr() != n.pieces().as_ptr()).count()
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
            let concat: Vec<u8> = parts.iter().flat_map(|p| p.to_bytes().to_vec()).collect();
            prop_assert_eq!(&concat[..], &a.snapshot()[..]);
            let entries: usize = model.iter().map(|(k, v)| 2 + k.len() + 4 + v.len()).sum();
            prop_assert_eq!(concat.len(), 4 + entries + 8, "no per-part header");

            // A restored store adopts the parts as its buckets' encodings:
            // its next snapshot re-encodes none of them.
            let mut restored = KvStore::new();
            prop_assert!(restored.restore(&parts));
            let again = restored.snapshot_parts();
            prop_assert_eq!(reencoded(&parts[1..=BUCKETS], &again[1..=BUCKETS]), 0);
            prop_assert_eq!(&again, &parts);
            prop_assert_eq!(restored.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(restored.get(k), Some(&v[..]));
            }

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
