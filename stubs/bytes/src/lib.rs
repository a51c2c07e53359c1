//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal, API-compatible subset of `bytes`: the cheaply
//! cloneable [`Bytes`] buffer, the growable [`BytesMut`] builder, and the
//! big-endian cursor traits [`Buf`] / [`BufMut`] — exactly the surface the
//! Spider crates use. Swap in the real crate by pointing the workspace
//! dependency at crates.io; no source changes are required.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous byte buffer.
///
/// Two representations behind one API: a borrowed `&'static [u8]`
/// (constants never allocate) and a window onto a shared heap buffer that
/// takes over the `Vec` it was built from without copying it. A
/// [`Bytes::slice`] is another window onto the same buffer, which stays
/// allocated while any window onto it lives. Equality, ordering and
/// hashing look at the contents only.
#[derive(Clone)]
pub struct Bytes {
    data: Repr,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// `buf[start..end]`, with `start <= end <= buf.len()`.
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        end: usize,
    },
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Creates `Bytes` from a static slice.
    pub const fn from_static(slice: &'static [u8]) -> Bytes {
        Bytes { data: Repr::Static(slice) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Returns a copy of the contents as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Creates `Bytes` by copying a slice.
    pub fn copy_from_slice(slice: &[u8]) -> Bytes {
        Bytes::from(slice.to_vec())
    }

    /// The bytes in `range`, sharing this buffer: O(1), nothing is
    /// copied. An empty range gives [`Bytes::new`], which holds on to no
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range starts after it ends or ends past `self.len()`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("out of range"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("out of range"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "range start must not be greater than end: {begin:?} <= {end:?}");
        assert!(end <= len, "range end out of bounds: {end:?} <= {len:?}");
        if begin == end {
            return Bytes::new();
        }
        let data = match &self.data {
            Repr::Static(slice) => Repr::Static(&slice[begin..end]),
            Repr::Shared { buf, start, .. } => {
                Repr::Shared { buf: Arc::clone(buf), start: start + begin, end: start + end }
            }
        };
        Bytes { data }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Repr::Static(slice) => slice,
            Repr::Shared { buf, start, end } => &buf[*start..*end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Repr::Shared { buf: Arc::new(v), start: 0, end } }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(slice: &'static [u8]) -> Bytes {
        Bytes::from_static(slice)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from(b.into_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer used to build a [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> BytesMut {
        BytesMut { data: Vec::new() }
    }

    /// Creates an empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes the builder into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Read access to a byte cursor; all integer accessors are big-endian and
/// advance the cursor.
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;
    /// Current readable chunk.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_be_bytes(raw)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(raw)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write access to a byte sink; all integer writers are big-endian.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, slice: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, slice: &[u8]) {
        self.extend_from_slice(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16(0x1234);
        b.put_u32(0xdead_beef);
        b.put_u64(42);
        b.put_slice(b"xyz");
        let frozen = b.freeze();
        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u16(), 0x1234);
        assert_eq!(cur.get_u32(), 0xdead_beef);
        assert_eq!(cur.get_u64(), 42);
        assert_eq!(cur, b"xyz");
    }

    #[test]
    fn bytes_equality_and_clone_share() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, &[1, 2, 3][..]);
        assert_eq!(Bytes::from_static(b"ok").len(), 2);
    }

    #[test]
    fn static_and_shared_representations_are_indistinguishable() {
        let mut built = BytesMut::with_capacity(8);
        built.put_slice(b"\0ok");
        let pairs = [
            (Bytes::from_static(b"\0ok"), built.freeze()),
            (Bytes::from_static(b"\0ok"), Bytes::copy_from_slice(b"\0ok")),
            (Bytes::new(), Bytes::from(Vec::new())),
            (Bytes::default(), Bytes::from(Vec::new().into_boxed_slice())),
        ];
        for (fixed, heap) in &pairs {
            assert_eq!(&fixed[..], &heap[..]);
            assert_eq!(fixed, heap);
            assert_eq!(fixed.cmp(heap), std::cmp::Ordering::Equal);
            assert_eq!(hash_of(fixed), hash_of(heap));
            assert_eq!(format!("{fixed:?}"), format!("{heap:?}"));
            assert_eq!(fixed.to_vec(), heap.to_vec());
        }
        let (fixed_a, fixed_b) = (Bytes::from_static(b"a"), Bytes::from_static(b"b"));
        let (heap_a, heap_b) = (Bytes::from(vec![b'a']), Bytes::from(vec![b'b']));
        assert!(fixed_a < heap_b && heap_a < fixed_b, "ordering is by contents");
    }

    fn hash_of(b: &Bytes) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    #[test]
    fn slices_share_the_buffer_and_nest() {
        let whole = Bytes::from(b"0123456789".to_vec());
        let mid = whole.slice(2..8);
        assert_eq!(&mid[..], b"234567");
        assert_eq!(mid.as_ptr(), whole[2..].as_ptr(), "no copy");
        let inner = mid.slice(1..=3);
        assert_eq!(&inner[..], b"345");
        assert_eq!(
            inner.as_ptr(),
            whole[3..].as_ptr(),
            "a slice of a slice is a window onto the first buffer"
        );
        assert_eq!(&mid.slice(..2)[..], b"23");
        assert_eq!(&mid.slice(4..)[..], b"67");
        assert_eq!(mid.slice(..), mid);
        drop(whole);
        assert_eq!(&inner[..], b"345", "a slice keeps the buffer alive");
    }

    #[test]
    fn slices_of_static_and_empty_buffers() {
        let fixed = Bytes::from_static(b"\0not-found");
        let tail = fixed.slice(1..4);
        assert_eq!(&tail[..], b"not");
        assert_eq!(tail.as_ptr(), fixed[1..].as_ptr());
        for empty in [Bytes::new(), Bytes::from(Vec::new())] {
            assert!(empty.slice(..).is_empty());
            assert!(empty.slice(0..0).is_empty());
        }
        assert!(fixed.slice(3..3).is_empty());
        assert_eq!(fixed.slice(3..3), Bytes::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_slice_past_the_end_panics() {
        let _ = Bytes::from(vec![1, 2, 3]).slice(1..4);
    }

    #[test]
    #[should_panic(expected = "greater than end")]
    fn a_reversed_slice_panics() {
        let b = Bytes::from_static(b"abc");
        let (from, to) = (2, 1);
        let _ = b.slice(from..to);
    }

    #[test]
    fn slices_compare_and_hash_by_contents() {
        let a = Bytes::from(b"xxabcxx".to_vec()).slice(2..5);
        let b = Bytes::from_static(b"abc");
        let c = Bytes::from(b"__abd".to_vec()).slice(2..);
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(format!("{a:?}"), "b\"abc\"");
        assert!(a < c && b < c, "ordering is by contents");
        assert_ne!(hash_of(&a), hash_of(&c));
        let mut set = std::collections::BTreeSet::new();
        set.insert(a);
        assert!(set.contains(&b"abc"[..]), "lookups by borrowed contents find a slice");
    }

    #[test]
    fn from_vec_and_freeze_take_the_buffer_without_copying() {
        let v = vec![7u8; 64];
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), at);
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(&[1; 64]);
        let at = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), at);
    }
}
