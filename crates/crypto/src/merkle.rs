//! Merkle trees over slot digests.
//!
//! The IRMC's multi-slot range certification (appendix §A.9 direction)
//! signs **one digest for a whole contiguous slot range** instead of one
//! RSA signature per slot: the per-slot content digests become the leaves
//! of a Merkle tree and the single signature covers the root. A verifier
//! holding all range content recomputes the root ([`merkle_root`]); a
//! verifier holding a single slot checks an audit path ([`MerkleProof`]).
//!
//! Construction notes:
//!
//! * Leaves and internal nodes are domain-separated (`"mleaf"` /
//!   `"mnode"`), so an internal node can never be reinterpreted as a leaf
//!   (second-preimage hardening).
//! * A leaf wrap hashes `Digest::builder().str("mleaf").digest(leaf)` and
//!   an inner combine `….str("mnode").digest(left).digest(right)`: 53 and
//!   93 bytes, so with padding exactly **one** and **two** SHA-256 blocks.
//!   Both are laid out as those blocks directly (the tag and length
//!   prefixes are constants) and compressed from the initial state; the
//!   builder form is the test oracle.
//! * Odd nodes are promoted unchanged to the next level (no duplication),
//!   so a tree over `n` leaves hashes exactly `n` leaf wraps plus `n - 1`
//!   inner combines — `n + 2 (n - 1)` compressions — folding each level
//!   into the front of the one buffer that held the level below.
//! * The root over a single leaf is the wrapped leaf, and the root over
//!   zero leaves is [`Digest::ZERO`] (ranges are never empty on the wire).
//!
//! # Examples
//!
//! ```
//! use spider_crypto::{merkle_proof, merkle_root, Digest};
//!
//! let leaves: Vec<Digest> = (0..5u64)
//!     .map(|i| Digest::builder().u64(i).finish())
//!     .collect();
//! let root = merkle_root(&leaves);
//! let proof = merkle_proof(&leaves, 3);
//! assert!(proof.verify(&root, &leaves[3]));
//! assert!(!proof.verify(&root, &leaves[2]), "wrong leaf for this path");
//! ```

use crate::digest::Digest;
use crate::sha256::Sha256;
use std::collections::BTreeMap;

/// The padded SHA-256 input of `Digest::builder().str(tag)` followed by
/// `digests` digest fields, with the digests themselves left zero:
/// `[5u64][tag]` then `[32u64][digest]` per field (all lengths
/// big-endian), `0x80`, zeros, and the bit length in the last 8 bytes.
const fn template<const N: usize>(tag: &[u8; 5], digests: usize) -> [u8; N] {
    let mut block = [0u8; N];
    block[7] = 5;
    let mut i = 0;
    while i < 5 {
        block[8 + i] = tag[i];
        i += 1;
    }
    let mut field = 0;
    while field < digests {
        block[13 + 40 * field + 7] = 32;
        field += 1;
    }
    let len = 13 + 40 * digests;
    block[len] = 0x80;
    let bits = (len as u64 * 8).to_be_bytes();
    let mut i = 0;
    while i < 8 {
        block[N - 8 + i] = bits[i];
        i += 1;
    }
    block
}

const LEAF_BLOCK: [u8; 64] = template(b"mleaf", 1);
const NODE_BLOCKS: [u8; 128] = template(b"mnode", 2);

/// Wraps a leaf digest (domain-separated from inner nodes).
fn leaf_hash(leaf: &Digest) -> Digest {
    let mut block = LEAF_BLOCK;
    block[21..53].copy_from_slice(&leaf.0);
    Digest(Sha256::digest_padded(&block))
}

/// Combines two child digests into their parent.
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut blocks = NODE_BLOCKS;
    blocks[21..53].copy_from_slice(&left.0);
    blocks[61..93].copy_from_slice(&right.0);
    Digest(Sha256::digest_padded(&blocks))
}

/// Folds one tree level into the next, in place: pairs combine into the
/// front of `level`, an odd last node is promoted unchanged.
fn fold_level(level: &mut Vec<Digest>) {
    let n = level.len();
    for i in 0..n / 2 {
        level[i] = node_hash(&level[2 * i], &level[2 * i + 1]);
    }
    if n % 2 == 1 {
        level[n / 2] = level[n - 1];
    }
    level.truncate(n.div_ceil(2));
}

/// Computes the Merkle root over `leaves` (per-slot content digests).
///
/// Returns [`Digest::ZERO`] for an empty slice.
pub fn merkle_root(leaves: &[Digest]) -> Digest {
    if leaves.is_empty() {
        return Digest::ZERO;
    }
    let mut level: Vec<Digest> = leaves.iter().map(leaf_hash).collect();
    while level.len() > 1 {
        fold_level(&mut level);
    }
    level[0]
}

/// An audit path proving one leaf's membership under a [`merkle_root`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Sibling digests from leaf level to root; the flag says whether the
    /// sibling sits on the left.
    path: Vec<(Digest, bool)>,
}

impl MerkleProof {
    /// Number of siblings on the path (tree depth for this leaf).
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Whether the path is empty (single-leaf tree).
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// Verifies that `leaf` (a raw content digest, unwrapped) sits under
    /// `root` at the position this proof was generated for.
    pub fn verify(&self, root: &Digest, leaf: &Digest) -> bool {
        let mut acc = leaf_hash(leaf);
        for (sibling, sibling_is_left) in &self.path {
            acc =
                if *sibling_is_left { node_hash(sibling, &acc) } else { node_hash(&acc, sibling) };
        }
        acc == *root
    }
}

/// A bounded, deterministic cache of already-verified range statements,
/// keyed by digest.
///
/// The IRMC-RC dedup path verifies each certified range statement (the
/// signed digest binding subchannel, first position, count, and Merkle
/// root) at most once: the first content copy pays the full signature
/// check, and every later copy of the same statement is accepted by root
/// comparison against this cache instead of being re-verified
/// member-by-member. Eviction is strict insertion order (oldest first),
/// so two runs that insert the same digests in the same order hold the
/// same cache — a requirement for the deterministic simulator.
///
/// # Examples
///
/// ```
/// use spider_crypto::{Digest, RootCache};
///
/// let mut cache = RootCache::new(2);
/// let a = Digest::of_bytes(b"a");
/// let b = Digest::of_bytes(b"b");
/// let c = Digest::of_bytes(b"c");
/// cache.insert(a);
/// cache.insert(b);
/// cache.insert(c); // evicts `a`, the oldest entry
/// assert!(!cache.contains(&a));
/// assert!(cache.contains(&b) && cache.contains(&c));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RootCache {
    cap: usize,
    seq: u64,
    by_digest: BTreeMap<Digest, u64>,
    by_age: BTreeMap<u64, Digest>,
}

impl RootCache {
    /// Creates a cache holding at most `cap` digests (`cap == 0` caches
    /// nothing and every lookup misses).
    pub fn new(cap: usize) -> Self {
        RootCache { cap, seq: 0, by_digest: BTreeMap::new(), by_age: BTreeMap::new() }
    }

    /// Whether `digest` was inserted and has not been evicted.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.by_digest.contains_key(digest)
    }

    /// Records `digest` as verified, evicting the oldest entry when full.
    /// Re-inserting an existing digest is a no-op (its age is preserved).
    pub fn insert(&mut self, digest: Digest) {
        if self.cap == 0 || self.by_digest.contains_key(&digest) {
            return;
        }
        if self.by_digest.len() == self.cap {
            if let Some((&oldest, &evicted)) = self.by_age.iter().next() {
                self.by_age.remove(&oldest);
                self.by_digest.remove(&evicted);
            }
        }
        self.by_digest.insert(digest, self.seq);
        self.by_age.insert(self.seq, digest);
        self.seq += 1;
    }

    /// Number of cached digests.
    pub fn len(&self) -> usize {
        self.by_digest.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.by_digest.is_empty()
    }
}

/// Builds the audit path for `leaves[index]`.
///
/// # Panics
///
/// Panics if `index` is out of bounds.
pub fn merkle_proof(leaves: &[Digest], index: usize) -> MerkleProof {
    assert!(index < leaves.len(), "merkle proof index out of range");
    let mut level: Vec<Digest> = leaves.iter().map(leaf_hash).collect();
    let mut idx = index;
    let mut path = Vec::new();
    while level.len() > 1 {
        let sibling = idx ^ 1;
        if sibling < level.len() {
            path.push((level[sibling], sibling < idx));
        }
        fold_level(&mut level);
        idx /= 2;
    }
    MerkleProof { path }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: u64) -> Vec<Digest> {
        (0..n).map(|i| Digest::builder().u64(i).finish()).collect()
    }

    /// The builder form of the two node hashes and the level-by-level
    /// tree over them: what the fixed-layout code must reproduce.
    fn leaf_oracle(leaf: &Digest) -> Digest {
        Digest::builder().str("mleaf").digest(leaf).finish()
    }

    fn node_oracle(left: &Digest, right: &Digest) -> Digest {
        Digest::builder().str("mnode").digest(left).digest(right).finish()
    }

    fn root_oracle(leaves: &[Digest]) -> Digest {
        let mut level: Vec<Digest> = leaves.iter().map(leaf_oracle).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => node_oracle(l, r),
                    odd => odd[0], // promoted unchanged
                })
                .collect();
        }
        level[0]
    }

    #[test]
    fn fixed_layout_hashes_equal_the_builder_form_for_every_size() {
        for n in 1..=65u64 {
            let l = leaves(n);
            assert_eq!(leaf_hash(&l[0]), leaf_oracle(&l[0]), "leaf wrap, n={n}");
            assert_eq!(
                node_hash(&l[0], &l[n as usize - 1]),
                node_oracle(&l[0], &l[n as usize - 1])
            );
            let root = merkle_root(&l);
            assert_eq!(root, root_oracle(&l), "root over {n} leaves (odd promotions included)");
            for i in [0, n as usize / 2, n as usize - 1] {
                assert!(merkle_proof(&l, i).verify(&root, &l[i]), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn empty_root_is_zero() {
        assert_eq!(merkle_root(&[]), Digest::ZERO);
    }

    #[test]
    fn single_leaf_root_is_wrapped_leaf() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), leaf_hash(&l[0]));
        assert_ne!(merkle_root(&l), l[0], "leaf wrap is domain-separated");
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = leaves(7);
        let root = merkle_root(&base);
        for i in 0..base.len() {
            let mut tampered = base.clone();
            tampered[i] = Digest::of_bytes(b"evil");
            assert_ne!(merkle_root(&tampered), root, "leaf {i} tampering must change the root");
        }
    }

    #[test]
    fn root_depends_on_order_and_length() {
        let mut l = leaves(4);
        let root = merkle_root(&l);
        l.swap(0, 1);
        assert_ne!(merkle_root(&l), root, "order matters");
        l.swap(0, 1);
        l.push(Digest::of_bytes(b"extra"));
        assert_ne!(merkle_root(&l), root, "length matters");
    }

    #[test]
    fn proofs_verify_for_every_leaf_and_size() {
        for n in 1..=9u64 {
            let l = leaves(n);
            let root = merkle_root(&l);
            for (i, leaf) in l.iter().enumerate() {
                let proof = merkle_proof(&l, i);
                assert!(proof.verify(&root, leaf), "n={n} i={i}");
                let other = Digest::of_bytes(b"not-a-member");
                assert!(!proof.verify(&root, &other), "n={n} i={i} foreign leaf");
            }
        }
    }

    #[test]
    fn proof_fails_against_wrong_root() {
        let l = leaves(6);
        let proof = merkle_proof(&l, 2);
        let wrong = merkle_root(&leaves(5));
        assert!(!proof.verify(&wrong, &l[2]));
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn proof_index_out_of_range_panics() {
        let _ = merkle_proof(&leaves(3), 3);
    }

    #[test]
    fn root_cache_evicts_oldest_first() {
        let mut cache = RootCache::new(3);
        let digests = leaves(5);
        for d in &digests[..3] {
            cache.insert(*d);
        }
        assert_eq!(cache.len(), 3);
        cache.insert(digests[0]); // refresh is a no-op, age preserved
        cache.insert(digests[3]); // evicts digests[0], still the oldest
        assert!(!cache.contains(&digests[0]));
        assert!(cache.contains(&digests[1]));
        cache.insert(digests[4]); // evicts digests[1]
        assert!(!cache.contains(&digests[1]));
        assert!(cache.contains(&digests[2]));
        assert!(cache.contains(&digests[3]));
        assert!(cache.contains(&digests[4]));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn root_cache_zero_capacity_never_hits() {
        let mut cache = RootCache::new(0);
        let d = Digest::of_bytes(b"x");
        cache.insert(d);
        assert!(!cache.contains(&d));
        assert!(cache.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any tampering of any leaf changes the root, and every honest
        /// audit path verifies while a shifted one does not.
        #[test]
        fn roots_bind_all_leaves(n in 1usize..24, tamper in 0usize..24, seed in any::<u64>()) {
            let tamper = tamper % n;
            let leaves: Vec<Digest> = (0..n as u64)
                .map(|i| Digest::builder().u64(seed).u64(i).finish())
                .collect();
            let root = merkle_root(&leaves);
            let mut bad = leaves.clone();
            bad[tamper] = Digest::builder().u64(seed).str("tampered").finish();
            prop_assert_ne!(merkle_root(&bad), root);
            let proof = merkle_proof(&leaves, tamper);
            prop_assert!(proof.verify(&root, &leaves[tamper]));
            prop_assert!(!proof.verify(&root, &bad[tamper]));
        }
    }
}
