//! Message digests over semantic content.
//!
//! Protocol messages in this workspace are not serialized (the simulator
//! models their wire size analytically), so signatures and MACs are
//! computed over a [`Digest`] derived from the message's semantic fields
//! via a [`DigestBuilder`]. Two messages with the same fields produce the
//! same digest; any field difference changes it.

use crate::sha256::Sha256;
use serde::{Deserialize, Serialize};
use spider_types::WireSize;
use std::sync::{Arc, OnceLock};

/// Types whose content can be summarized as a [`Digest`].
///
/// Protocol payloads implement this so channels and consensus can vote on
/// and authenticate content without serializing it.
pub trait Digestible {
    /// Content digest. Equal values must produce equal digests; any
    /// semantic difference must change the digest.
    fn digest(&self) -> Digest;
}

/// An immutable, shared value that remembers its own [`Digest`].
///
/// Messages here never change once built, yet every hop that
/// authenticates one asks for its digest again, and every fan-out copies
/// it. `Hashed` puts the value and a write-once digest behind one
/// reference count: the digest is computed on first use, and a clone is
/// the same value with the same memo, so a message and all its copies are
/// hashed at most once and copied never.
///
/// The memo can never vouch for different content: the value is reachable
/// only through `Deref` (no `DerefMut`, no public field), and the one way
/// to change it — [`Hashed::into_inner`], edit, [`Hashed::new`] — starts
/// from an empty memo. Equality and `Debug` look at the value alone.
///
/// # Examples
///
/// ```
/// use spider_crypto::{Digest, Digestible, Hashed};
///
/// #[derive(Clone)]
/// struct Word(&'static str);
/// impl Digestible for Word {
///     fn digest(&self) -> Digest {
///         Digest::of_bytes(self.0.as_bytes())
///     }
/// }
///
/// let a = Hashed::new(Word("a"));
/// assert_eq!(a.digest(), Digest::of_bytes(b"a"));
/// let mut inner = a.into_inner();
/// inner.0 = "b";
/// assert_eq!(Hashed::new(inner).digest(), Digest::of_bytes(b"b"));
/// ```
pub struct Hashed<T>(Arc<Memoized<T>>);

struct Memoized<T> {
    value: T,
    digest: OnceLock<Digest>,
}

impl<T> Hashed<T> {
    /// Wraps `value`; nothing is hashed until the digest is asked for.
    pub fn new(value: T) -> Self {
        Hashed(Arc::new(Memoized { value, digest: OnceLock::new() }))
    }

    /// Gives the value back (a copy of it while clones of `self` are
    /// alive) and forgets its digest.
    pub fn into_inner(self) -> T
    where
        T: Clone,
    {
        Arc::try_unwrap(self.0).map_or_else(|shared| shared.value.clone(), |own| own.value)
    }
}

impl<T> Clone for Hashed<T> {
    fn clone(&self) -> Self {
        Hashed(Arc::clone(&self.0))
    }
}

impl<T> From<T> for Hashed<T> {
    fn from(value: T) -> Self {
        Hashed::new(value)
    }
}

impl<T> std::ops::Deref for Hashed<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: Digestible> Digestible for Hashed<T> {
    fn digest(&self) -> Digest {
        *self.0.digest.get_or_init(|| self.0.value.digest())
    }
}

impl<T: PartialEq> PartialEq for Hashed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.value == other.0.value
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Hashed<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: WireSize> WireSize for Hashed<T> {
    fn wire_size(&self) -> usize {
        self.0.value.wire_size()
    }

    fn trace_kind(&self) -> &'static str {
        self.0.value.trace_kind()
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        self.0.value.trace_reqs(visit);
    }
}

/// A 32-byte SHA-256 digest identifying message content.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest; used as a placeholder for "no content".
    pub const ZERO: Digest = Digest([0; 32]);

    /// Hashes a byte string.
    pub fn of_bytes(data: &[u8]) -> Digest {
        Digest(Sha256::digest(data))
    }

    /// Starts building a digest over structured fields.
    pub fn builder() -> DigestBuilder {
        DigestBuilder::new()
    }

    /// First eight bytes as a u64, handy for compact logging.
    pub fn short(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({:016x}…)", self.short())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.short())
    }
}

/// Incrementally hashes length-delimited fields into a [`Digest`].
///
/// Fields are length-prefixed so that `("ab", "c")` and `("a", "bc")`
/// produce different digests.
///
/// # Examples
///
/// ```
/// use spider_crypto::Digest;
///
/// let d1 = Digest::builder().u64(1).bytes(b"op").finish();
/// let d2 = Digest::builder().u64(1).bytes(b"op").finish();
/// let d3 = Digest::builder().u64(2).bytes(b"op").finish();
/// assert_eq!(d1, d2);
/// assert_ne!(d1, d3);
/// ```
#[derive(Debug, Clone)]
pub struct DigestBuilder {
    hasher: Sha256,
}

impl Default for DigestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DigestBuilder { hasher: Sha256::new() }
    }

    /// Appends a length-prefixed byte field.
    #[must_use]
    #[inline]
    pub fn bytes(mut self, data: &[u8]) -> Self {
        self.hasher.update(&(data.len() as u64).to_be_bytes());
        self.hasher.update(data);
        self
    }

    /// Appends one length-prefixed byte field given in pieces: the same
    /// digest as [`Self::bytes`] over their concatenation, without
    /// building it.
    #[must_use]
    pub fn bytes_concat<'a, I>(mut self, pieces: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: Clone,
    {
        let pieces = pieces.into_iter();
        let len: usize = pieces.clone().map(<[u8]>::len).sum();
        self.hasher.update(&(len as u64).to_be_bytes());
        for piece in pieces {
            self.hasher.update(piece);
        }
        self
    }

    /// Appends a u64 field.
    #[must_use]
    #[inline]
    pub fn u64(mut self, v: u64) -> Self {
        let mut field = [8u8; 9];
        field[1..].copy_from_slice(&v.to_be_bytes());
        self.hasher.update(&field);
        self
    }

    /// Appends a u32 field.
    #[must_use]
    #[inline]
    pub fn u32(mut self, v: u32) -> Self {
        let mut field = [4u8; 5];
        field[1..].copy_from_slice(&v.to_be_bytes());
        self.hasher.update(&field);
        self
    }

    /// Appends another digest as a field.
    #[must_use]
    #[inline]
    pub fn digest(self, d: &Digest) -> Self {
        self.bytes(&d.0)
    }

    /// Appends a UTF-8 string field.
    #[must_use]
    #[inline]
    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// Finishes and returns the digest.
    #[inline]
    pub fn finish(self) -> Digest {
        Digest(self.hasher.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_field_in_pieces_is_the_field() {
        let pieces: [&[u8]; 4] = [b"ab", b"", b"cde", &[0u8; 70]];
        let whole = pieces.concat();
        let direct = Digest::builder().u64(3).bytes(&whole).str("end").finish();
        let streamed = Digest::builder().u64(3).bytes_concat(pieces).str("end").finish();
        assert_eq!(direct, streamed);
        let empty = Digest::builder().bytes_concat(std::iter::empty()).finish();
        assert_eq!(empty, Digest::builder().bytes(b"").finish());
    }

    #[test]
    fn field_boundaries_matter() {
        let a = Digest::builder().bytes(b"ab").bytes(b"c").finish();
        let b = Digest::builder().bytes(b"a").bytes(b"bc").finish();
        assert_ne!(a, b, "length prefixes must separate fields");
    }

    #[test]
    fn integer_fields_hash_as_length_tag_then_big_endian_value() {
        let d = Digest::builder().u64(0x0102_0304_0506_0708).u32(0x0a0b_0c0d).finish();
        assert_eq!(d, Digest::of_bytes(&[8, 1, 2, 3, 4, 5, 6, 7, 8, 4, 0x0a, 0x0b, 0x0c, 0x0d]));
    }

    #[test]
    fn deterministic_across_builders() {
        let mk = || Digest::builder().u64(7).u32(3).str("x").finish();
        assert_eq!(mk(), mk());
    }

    #[test]
    fn nested_digest_changes_output() {
        let inner1 = Digest::of_bytes(b"1");
        let inner2 = Digest::of_bytes(b"2");
        let a = Digest::builder().digest(&inner1).finish();
        let b = Digest::builder().digest(&inner2).finish();
        assert_ne!(a, b);
    }

    /// Counts how often its digest is computed.
    #[derive(Clone, Debug, PartialEq)]
    struct Counted {
        content: u64,
        hashed: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl Digestible for Counted {
        fn digest(&self) -> Digest {
            self.hashed.set(self.hashed.get() + 1);
            Digest::builder().u64(self.content).finish()
        }
    }

    #[test]
    fn hashed_computes_once_and_clones_share_the_memo() {
        let hashed = std::rc::Rc::new(std::cell::Cell::new(0));
        let a = Hashed::new(Counted { content: 7, hashed: hashed.clone() });
        let early = a.clone();
        assert_eq!(hashed.get(), 0, "nothing is hashed before the first use");
        let d = a.digest();
        assert_eq!(a.digest(), d);
        assert_eq!(a.clone().digest(), d);
        assert_eq!(early.digest(), d);
        assert_eq!(hashed.get(), 1, "the value and all its clones share one hash");
    }

    #[test]
    fn hashed_rebuilt_after_a_change_forgets_the_old_digest() {
        let hashed = std::rc::Rc::new(std::cell::Cell::new(0));
        let a = Hashed::new(Counted { content: 7, hashed });
        let before = a.digest();
        let mut inner = a.clone().into_inner();
        inner.content = 8;
        let b = Hashed::new(inner);
        assert_ne!(b.digest(), before, "no stale memo can vouch for changed content");
        assert_eq!(b.digest(), b.clone().into_inner().digest());
        assert_ne!(a, b);
        assert_eq!(format!("{a:?}"), format!("{:?}", a.clone().into_inner()));
    }

    #[test]
    fn short_is_prefix() {
        let d = Digest::of_bytes(b"abc");
        let expected = u64::from_be_bytes(d.0[..8].try_into().unwrap());
        assert_eq!(d.short(), expected);
        assert_eq!(format!("{d}"), format!("{expected:016x}"));
    }
}
