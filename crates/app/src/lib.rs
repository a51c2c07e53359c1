//! Application state machines for the Spider reproduction.
//!
//! The paper's evaluation runs a **key-value store** behind every system
//! under test (§5). This crate provides that store as a deterministic
//! [`Application`]: binary get/put operations, full-state snapshots, and a
//! workload-operation encoder used by the experiment harness.
//!
//! # Checkpoints: hash what changed
//!
//! Execution replicas checkpoint every `ke` requests (§3.4) and sign a
//! hash over the digests of the state's parts (see [`spider::checkpoint`]).
//! A store that hands out again the parts no write has touched since the
//! last checkpoint makes a checkpoint cost the host what was written, not
//! what is stored.
//!
//! - **Buckets.** [`KvStore`] keeps its entries in 256 buckets chosen by an
//!   FNV-1a hash of the key, and its snapshot is one [`Part`] per bucket
//!   between a count part and an operation-counter part. The bucket count
//!   is a private constant, not a knob: replicas sign a hash over the part
//!   list, so all of them must cut the state the same way. Which bucket a
//!   key is in and the order inside a bucket depend on the keys alone, so
//!   equal contents give equal parts whatever the order of puts and
//!   wherever snapshots were taken in between.
//! - **Records.** A put is `P [key len u16][key][value len u32][value]` on
//!   the wire, and the snapshot encodes an entry as `[key len u16][key]
//!   [value len u32][value]`: an entry's snapshot bytes are its put's
//!   request without the tag byte. The store keeps exactly that
//!   [`Bytes::slice`] of the request as the entry, its *record*; bytes
//!   after the value are not part of it. Reads answer with slices of the
//!   stored value. No byte is copied, in or out.
//! - **A bucket is its part.** A bucket's records are one immutable shared
//!   list (`Arc<[Bytes]>`, one record a piece, in key order), and that list
//!   is the piece list of the bucket's part ([`Part::from_list`]). A
//!   checkpoint hashes each bucket a put touched over its list and builds
//!   no list for it; every other bucket's part, digest included, is the
//!   previous snapshot's. A put builds its bucket's next list once, at its
//!   exact size; an overwrite replaces its slot in place when no snapshot
//!   holds the list.
//! - **Restore adopts the lists.** [`Application::restore`] is handed the
//!   verified parts. When every piece of a bucket's part is one whole
//!   record, the part's list becomes the bucket's records as it is
//!   ([`Part::pieces`]) and the part stays the bucket's, so the first
//!   checkpoint after a restore hashes nothing. Where the pieces are cut is
//!   not signed, so no part is rejected for its cut alone: pieces of
//!   several whole records are sliced in place, and a part whose pieces
//!   split a record is joined into one buffer, once, and sliced from that.
//!   The store accepts only the contents it would encode — a part per
//!   bucket and the two around them, every key in its own bucket, keys
//!   strictly ascending, the count matching — and otherwise leaves its
//!   state as it was.
//! - **What it costs.** A record pins the whole buffer it is a slice of: a
//!   put's request, with its tag byte and anything after the value, or a
//!   fetched piece, which a piece of several records keeps allocated until
//!   every entry from it has been overwritten. A put into a bucket whose
//!   list a snapshot shares copies the list's handles, one per record in
//!   the bucket. A dirty bucket is re-hashed whole, so a checkpoint's cost
//!   still grows with the store. More buckets would flatten that curve but
//!   raise the floor every checkpoint pays (the part list and its hash are
//!   as long as the bucket count), the wrong trade for stores of a few
//!   thousand keys; a digest tree over the buckets would remove the trade.
//! - **Adversarial keys** can only skew bucket sizes: a client that finds
//!   many keys for one bucket makes that bucket's puts and re-hashing
//!   slower on every replica alike. That is a performance effect, not a
//!   safety one: the part list is still a function of the contents.
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

use bytes::{BufMut, Bytes};
use spider::{Application, Part};
use std::ops::Range;
use std::sync::Arc;

/// A key-value store operation, held as its wire encoding: a tag byte and
/// then a record (a put) or a length-prefixed key (a get). The
/// constructors write it once, in one buffer of its exact size, and
/// [`KvOp::encode`] shares that buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvOp {
    bytes: Bytes,
    fields: Fields,
}

impl KvOp {
    /// A put of `value` under `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key is longer than 65 535 bytes or the value longer
    /// than 4 294 967 295 bytes: the format writes their lengths as a
    /// `u16` and a `u32`.
    pub fn put(key: &[u8], value: impl AsRef<[u8]>) -> KvOp {
        let value = value.as_ref();
        KvOp::put_with(key, value.len(), |buf| buf.put_slice(value))
    }

    /// A get of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key is longer than 65 535 bytes.
    pub fn get(key: &[u8]) -> KvOp {
        let mut buf = Vec::with_capacity(1 + 2 + key.len());
        buf.put_u8(b'G');
        buf.put_u16(key_len(key));
        buf.put_slice(key);
        KvOp { fields: Fields::Get { key: 3..buf.len() }, bytes: Bytes::from(buf) }
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
        KvOp::put_with(key, total_bytes - overhead, |buf| buf.resize(total_bytes, fill))
    }

    /// The put of a value of `value_len` bytes under `key`, which `value`
    /// appends to the buffer.
    fn put_with(key: &[u8], value_len: usize, value: impl FnOnce(&mut Vec<u8>)) -> KvOp {
        let vlen = u32::try_from(value_len)
            .unwrap_or_else(|_| panic!("a value is at most {} bytes, not {value_len}", u32::MAX));
        let len = 1 + 2 + key.len() + 4 + value_len;
        let mut buf = Vec::with_capacity(len);
        buf.put_u8(b'P');
        buf.put_u16(key_len(key));
        buf.put_slice(key);
        buf.put_u32(vlen);
        value(&mut buf);
        debug_assert_eq!(buf.len(), len, "the buffer was sized exactly");
        let key = 3..3 + key.len();
        KvOp { fields: Fields::Put { value: key.end + 4..len, key }, bytes: Bytes::from(buf) }
    }

    /// The operation's wire format: its own buffer, shared.
    pub fn encode(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Parses an operation, keeping the slice of `buf` it is (bytes after
    /// it are not part of it); `None` for malformed input.
    pub fn decode(buf: &Bytes) -> Option<KvOp> {
        let fields = Fields::of(buf)?;
        Some(KvOp { bytes: buf.slice(..fields.end()), fields })
    }

    /// Whether the operation is a put.
    pub fn is_put(&self) -> bool {
        matches!(self.fields, Fields::Put { .. })
    }

    /// The key.
    pub fn key(&self) -> &[u8] {
        match &self.fields {
            Fields::Put { key, .. } | Fields::Get { key } => &self.bytes[key.clone()],
        }
    }

    /// The value of a put; `None` for a get.
    pub fn value(&self) -> Option<&[u8]> {
        match &self.fields {
            Fields::Put { value, .. } => Some(&self.bytes[value.clone()]),
            Fields::Get { .. } => None,
        }
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Where the operation ends.
    fn end(&self) -> usize {
        match self {
            Fields::Put { value: end, .. } | Fields::Get { key: end } => end.end,
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
/// (see the [crate docs](crate)).
const BUCKETS: usize = 256;

/// The key of `record`, an entry as the snapshot encodes it: `[key len
/// u16][key][value len u32][value]`. A record is a slice of a put's
/// request or of a snapshot piece, checked whole when it was sliced.
fn key_of(record: &Bytes) -> &[u8] {
    let klen = usize::from(u16::from_be_bytes([record[0], record[1]]));
    &record[2..2 + klen]
}

/// Where the value of `record` starts.
fn value_at(record: &Bytes) -> usize {
    2 + key_of(record).len() + 4
}

/// One key-hashed bucket: its records in key order and, while no put has
/// touched them since, the snapshot part over them (see the [crate
/// docs](crate)).
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// One record a piece: the piece list of the bucket's part. Shared
    /// with every snapshot that holds the part, so a put replaces it
    /// rather than changing it, unless no snapshot holds it.
    records: Arc<[Bytes]>,
    /// The part over `records`, built by a checkpoint or adopted by a
    /// restore; `None` once a put has changed them.
    part: Option<Part>,
}

impl Bucket {
    /// Where `key`'s record is, or where it would go.
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        self.records.binary_search_by(|record| key_of(record).cmp(key))
    }

    fn get(&self, key: &[u8]) -> Option<&Bytes> {
        self.find(key).ok().and_then(|at| self.records.get(at))
    }

    /// The bucket `index` restored from `part`, if its bytes are what
    /// [`Application::snapshot_parts`] makes of a bucket: whole records,
    /// every key hashing to `index`, the keys strictly ascending.
    fn restored(part: &Part, index: usize) -> Option<Bucket> {
        let list = part.pieces();
        let records: Arc<[Bytes]> = if list.iter().all(|piece| is_one_record(piece)) {
            // The cut this store makes: the list is the bucket's records.
            Arc::clone(list)
        } else {
            // Pieces of whole records are sliced in place; a part cut
            // inside a record is joined once and sliced instead.
            records_in(list).or_else(|| records_in(&[part.to_bytes()]))?.into()
        };
        let ascending = records.windows(2).all(|w| key_of(&w[0]) < key_of(&w[1]));
        let own = records.iter().all(|record| bucket_of(key_of(record)) == index);
        (ascending && own).then(|| Bucket { records, part: Some(part.clone()) })
    }
}

/// Whether `bytes` are one whole record and nothing more.
fn is_one_record(bytes: &[u8]) -> bool {
    record(bytes, 0).is_some_and(|(_, value)| value.end == bytes.len())
}

/// The records in `pieces`, as slices of them, if every piece is whole
/// records.
fn records_in(pieces: &[Bytes]) -> Option<Vec<Bytes>> {
    let mut records = Vec::with_capacity(pieces.len());
    for piece in pieces {
        let mut at = 0;
        while at < piece.len() {
            let (_, value) = record(piece, at)?;
            records.push(piece.slice(at..value.end));
            at = value.end;
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
/// record is a slice of the buffer it arrived in: a put's of its request,
/// a restored entry's of the snapshot piece. A bucket's records are one
/// shared list that is its part's piece list, so a checkpoint copies no
/// byte and builds no list, and [`Application::restore`] adopts the lists
/// it is handed (see the [crate docs](crate)). A restore accepts only the
/// contents this store would encode — `BUCKETS + 2` parts, every key in
/// its own bucket, keys strictly ascending, the count matching — and
/// otherwise leaves the store as it was.
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
        self.buckets[bucket_of(key)].get(key).map(|record| &record[value_at(record)..])
    }

    /// The reply to a get of `key`: a slice of the stored value.
    fn read(&self, key: &[u8]) -> Bytes {
        let record = self.buckets[bucket_of(key)].get(key);
        record.map_or(Bytes::from_static(NOT_FOUND), |record| record.slice(value_at(record)..))
    }

    fn put(&mut self, record: Bytes) {
        let bucket = &mut self.buckets[bucket_of(key_of(&record))];
        bucket.part = None;
        let found = bucket.find(key_of(&record));
        if let (Ok(at), Some(records)) = (found, Arc::get_mut(&mut bucket.records)) {
            // No snapshot holds the list: overwrite in place.
            records[at] = record;
            return;
        }
        let (head, tail) = match found {
            Ok(at) => (at, at + 1),
            Err(at) => {
                self.len += 1;
                (at, at)
            }
        };
        let old = &bucket.records;
        // The iterator knows its length: one allocation of the exact size.
        let records =
            old[..head].iter().cloned().chain([record]).chain(old[tail..].iter().cloned());
        bucket.records = records.collect();
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
        let mut records: Vec<&Bytes> = self.buckets.iter().flat_map(|b| &*b.records).collect();
        records.sort_unstable_by(|a, b| key_of(a).cmp(key_of(b)));
        let mut b = spider_crypto::Digest::builder().u64(self.len as u64);
        for record in records {
            b = b.bytes(key_of(record)).bytes(&record[value_at(record)..]);
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
                self.put(op.slice(1..value.end));
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
        let records = || self.buckets.iter().flat_map(|b| b.records.iter());
        let mut buf = Vec::with_capacity(4 + records().map(Bytes::len).sum::<usize>() + 8);
        buf.put_u32(self.len as u32);
        records().for_each(|record| buf.put_slice(record));
        buf.put_u64(self.ops_applied);
        Bytes::from(buf)
    }

    fn snapshot_parts(&mut self, parts: &mut Vec<Part>) {
        parts.reserve(BUCKETS + 2);
        parts.push(Part::new(Bytes::from((self.len as u32).to_be_bytes().to_vec())));
        for Bucket { records, part } in &mut self.buckets {
            parts.push(part.get_or_insert_with(|| Part::from_list(Arc::clone(records))).clone());
        }
        parts.push(Part::new(Bytes::from(self.ops_applied.to_be_bytes().to_vec())));
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
        for (index, part) in buckets.iter().enumerate() {
            let Some(bucket) = Bucket::restored(part, index) else {
                return false;
            };
            restored.push(bucket);
        }
        let len = restored.iter().map(|bucket| bucket.records.len()).sum();
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

    /// The store's snapshot parts, as a checkpoint collects them.
    fn parts_of(store: &mut KvStore) -> Vec<Part> {
        let mut parts = Vec::new();
        store.snapshot_parts(&mut parts);
        parts
    }

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
        assert!(b.restore(&parts_of(&mut a)));
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
        let parts = parts_of(&mut s);
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
            assert_ne!(parts_of(&mut store), before);
        }
    }

    /// A store of `n` puts of 20-byte values, and its parts.
    fn filled(n: u32) -> (KvStore, Vec<Part>) {
        let mut s = KvStore::new();
        for i in 0..n {
            s.execute(&KvOp::put(format!("k{i}").as_bytes(), vec![i as u8; 20]).encode());
        }
        let parts = parts_of(&mut s);
        (s, parts)
    }

    #[test]
    fn a_restored_store_keeps_the_pieces_it_was_handed() {
        let (a, parts) = filled(600);
        let pieces: BTreeMap<*const u8, usize> = parts[1..=BUCKETS]
            .iter()
            .flat_map(|part| part.pieces().iter())
            .map(|piece| (piece.as_ptr(), piece.len()))
            .collect();
        let mut b = KvStore::new();
        assert!(b.restore(&parts));
        let records: Vec<&Bytes> = b.buckets.iter().flat_map(|b| &*b.records).collect();
        assert_eq!(records.len(), 600);
        for record in records {
            let piece = pieces.get(&record.as_ptr());
            assert_eq!(piece, Some(&record.len()), "{record:?} is a source piece");
        }
        for (bucket, part) in b.buckets.iter().zip(&parts[1..=BUCKETS]) {
            assert!(Arc::ptr_eq(&bucket.records, part.pieces()), "the bucket is the fetched list");
        }
        let again = parts_of(&mut b);
        let mut kept = again.iter().zip(&parts).skip(1).take(BUCKETS);
        assert!(kept.all(|(n, p)| Arc::ptr_eq(n.pieces(), p.pieces())), "nothing re-hashed");
        assert_eq!(again, parts);
        assert_eq!((b.map_digest(), b.state_digest()), (a.map_digest(), a.state_digest()));
    }

    #[test]
    fn a_part_restores_however_its_pieces_are_cut() {
        let (a, parts) = filled(600);
        let at = 1 + (0..BUCKETS).max_by_key(|&i| parts[1 + i].pieces().len()).unwrap();
        let bytes = parts[at].to_bytes();
        let first = parts[at].pieces()[0].len();
        let entries = parts[at].pieces().len();
        assert!(entries >= 3, "a bucket of several records");
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
            let records = &b.buckets[at - 1].records;
            assert_eq!(records.len(), entries, "{what}: one record a piece");
            assert!(records.iter().all(|r| is_one_record(r)), "{what}: whole records");
            assert_eq!(b.map_digest(), a.map_digest(), "{what}");
            assert_eq!(b.state_digest(), a.state_digest(), "{what}");
            assert_eq!(parts_of(&mut b), parts, "{what}");
        }
    }

    #[test]
    fn a_clean_bucket_shares_its_part_and_a_dirty_one_hashes_its_own_list() {
        let (mut s, first) = filled(600);
        let dirty = bucket_of(b"k7");
        s.execute(&KvOp::put(b"k7", vec![1; 20]).encode());
        let second = parts_of(&mut s);
        for (index, bucket) in s.buckets.iter().enumerate() {
            let (before, now) = (&first[1 + index], &second[1 + index]);
            assert!(Arc::ptr_eq(now.pieces(), &bucket.records), "bucket {index}: its own list");
            let shared = Arc::ptr_eq(before.pieces(), now.pieces()) && before.digest == now.digest;
            assert_eq!(shared, index != dirty, "bucket {index}");
        }
        assert!(second[1 + dirty].is_intact());
        assert_ne!(second[1 + dirty], first[1 + dirty]);
    }

    #[test]
    fn an_overwrite_into_an_unshared_list_keeps_its_pointer() {
        let (mut s, parts) = filled(600);
        let at = bucket_of(b"k7");
        let list = |s: &KvStore| Arc::as_ptr(&s.buckets[at].records).cast::<Bytes>();
        s.execute(&KvOp::put(b"k7", vec![1; 20]).encode());
        let copied = list(&s);
        assert_ne!(copied, parts[1 + at].pieces().as_ptr(), "a snapshot holds the list: copied");
        s.execute(&KvOp::put(b"k7", vec![2; 20]).encode());
        assert_eq!(list(&s), copied, "no snapshot holds the copy: overwritten in place");
        assert_eq!(s.get(b"k7"), Some(&[2; 20][..]));
        assert_eq!(s.len(), 600);
        assert_eq!(parts[1 + at], filled(600).1[1 + at], "the snapshot kept its bytes");
    }

    #[test]
    fn bytes_after_a_value_are_not_part_of_the_record() {
        let clean = KvOp::put(b"k", vec![5; 32]).encode();
        let trailing = Bytes::from([&clean[..], b"trailing"].concat());
        let (mut a, mut b) = (KvStore::new(), KvStore::new());
        a.execute(&clean);
        b.execute(&trailing);
        assert_eq!(b.get(b"k"), Some(&[5; 32][..]));
        assert_eq!(parts_of(&mut b), parts_of(&mut a));
        assert_eq!(b.state_digest(), a.state_digest());
        assert_eq!(b.snapshot(), a.snapshot());
    }

    #[test]
    fn factory_produces_parseable_ops() {
        let f = kv_op_factory(100);
        let w = f(3, spider_types::OpKind::Write, 200);
        assert_eq!(w.len(), 200);
        assert!(KvOp::decode(&w).is_some_and(|op| op.is_put()));
        let r = f(3, spider_types::OpKind::WeakRead, 200);
        assert!(KvOp::decode(&r).is_some_and(|op| !op.is_put()));
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
                let op = if is_put { KvOp::put(&key, value) } else { KvOp::get(&key) }.encode();
                prop_assert_eq!(a.execute(&op), b.execute(&op));
            }
            prop_assert_eq!(a.state_digest(), b.state_digest());
        }

        /// Encode/decode are inverse for arbitrary keys and values.
        #[test]
        fn codec_roundtrip(key in prop::collection::vec(any::<u8>(), 0..64),
                           value in prop::collection::vec(any::<u8>(), 0..256),
                           is_put in any::<bool>()) {
            let op = if is_put { KvOp::put(&key, &value) } else { KvOp::get(&key) };
            let decoded = KvOp::decode(&op.encode());
            prop_assert_eq!(decoded.as_ref().map(KvOp::key), Some(&key[..]));
            prop_assert_eq!(decoded.as_ref().and_then(KvOp::value), is_put.then_some(&value[..]));
            prop_assert_eq!(decoded, Some(op));
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
                a.execute(&KvOp::put(k, v).encode());
            }
            let mut b = KvStore::new();
            prop_assert!(b.restore(&parts_of(&mut a)));
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
            let mut prev = parts_of(&mut a);
            let mut puts = 0;
            for (key, value, action) in steps {
                match action {
                    0..=4 => {
                        a.execute(&KvOp::put(&key, &value).encode());
                        model.insert(key, value);
                        puts += 1;
                    }
                    5 => {
                        let expected = model.get(&key).map_or(NOT_FOUND, |v| v.as_slice());
                        prop_assert_eq!(&a.execute(&KvOp::get(&key).encode())[..], expected);
                    }
                    _ => {
                        let now = parts_of(&mut a);
                        // The bucket parts; the count and the counter
                        // around them are fresh every time.
                        prop_assert!(reencoded(&prev[1..=BUCKETS], &now[1..=BUCKETS]) <= puts);
                        prev = now;
                        puts = 0;
                    }
                }
            }
            let parts = parts_of(&mut a);
            prop_assert!(reencoded(&prev[1..=BUCKETS], &parts[1..=BUCKETS]) <= puts);
            let again = parts_of(&mut a);
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
            let again = parts_of(&mut restored);
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
                sorted.execute(&KvOp::put(k, v).encode());
            }
            prop_assert_eq!(&parts_of(&mut sorted)[..=BUCKETS], &parts[..=BUCKETS]);

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
