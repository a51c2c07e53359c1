//! Merkle trees over slot digests.
//!
//! The IRMC's multi-slot range certification (appendix §A.9 direction)
//! signs **one digest for a whole contiguous slot range** instead of one
//! RSA signature per slot: the per-slot content digests become the leaves
//! of a Merkle tree and the single signature covers the root, which a
//! verifier holding the range content recomputes ([`merkle_root`]).
//!
//! Construction:
//!
//! * **Leaves are the content digests themselves**, unwrapped.
//! * **An inner node is one SHA-256 compression** of the 64-byte block
//!   `left ‖ right`, started from `NODE`'s chaining value: the compression
//!   of a fixed tag block from the SHA-256 initial value, computed at
//!   compile time ([`Domain`]). There is no padding and no length block.
//! * Odd nodes are promoted unchanged to the next level (no duplication),
//!   so a tree over `n` leaves costs exactly `n − 1` compressions, folding
//!   each level into the front of the one buffer that held the level
//!   below.
//! * The root over one leaf is that leaf, so a slot is a range of one; the
//!   root over zero leaves is [`Digest::ZERO`] (ranges are never empty on
//!   the wire).
//!
//! Why no leaf wrap is needed. A leaf is a full SHA-256 digest — padded,
//! from the standard initial value — of the slot's content, recomputed by
//! every verifier from the content it holds. A node value is the chaining
//! value after the two blocks `tag ‖ left ‖ right` with no padding block
//! after them. Computed that way it is a SHA-256 digest only when `left ‖
//! right` is itself the padding block of the 64-byte message `tag`
//! (`0x80`, zeros, bit length 512), which a child holds only through a
//! preimage; any other content hashing to a node value is a preimage too.
//! So a node value can pass for a leaf only through a SHA-256 preimage.
//! What is left is the classic ambiguity of unwrapped trees between `n`
//! leaves and the `n / 2` parents one level up, which give the same root;
//! the signed range statement binds `count` and thereby the tree's shape,
//! so the two never make the same statement. This is also why there is no
//! audit-path API:
//! a path over unwrapped leaves checked against the root alone would
//! accept an inner node passed in as a leaf digest. A membership proof has
//! to bind the leaf's index and the leaf count as well.
//!
//! What it saves. A root over 32 leaves costs 31 compressions, where a
//! construction that wraps each leaf and hashes each inner node as a
//! padded two-block message cost 94; `micro_crypto`'s
//! `merkle_root/{2,32,128}` rows grow by one compression per leaf. The
//! IRMC's signed range statement (`spider_irmc::range_digest`, 116 bytes,
//! the first 64 a [`Domain`]'s tag block) is one compression too. So
//! range certification hashes each block of a range once. The test
//! oracles are the portable kernel over the tag block and the fields
//! written out, and a test-only counter in the SHA-256 dispatcher pins
//! `n − 1` compressions for every size 1..=65.
//!
//! [`crate::CostModel::merkle`] prices the paper's construction (a wrap
//! per leaf plus a two-block combine per inner node), not this one: what
//! the host saves here moves no modelled number.
//!
//! # Examples
//!
//! ```
//! use spider_crypto::{merkle_root, Digest};
//!
//! let leaves: Vec<Digest> = (0..5u64)
//!     .map(|i| Digest::builder().u64(i).finish())
//!     .collect();
//! let root = merkle_root(&leaves);
//! assert_eq!(root, merkle_root(&leaves), "a pure function of the leaves");
//! assert_eq!(merkle_root(&leaves[..1]), leaves[0], "one leaf is its own root");
//! let mut swapped = leaves.clone();
//! swapped.swap(1, 2);
//! assert_ne!(merkle_root(&swapped), root, "order matters");
//! ```

use crate::digest::Digest;
use crate::sha256::Domain;
use std::collections::BTreeMap;

/// The tag of the inner-node domain.
const NODE_TAG: &str = "spider merkle node";

/// The chaining value every inner node starts from.
const NODE: Domain = Domain::new(NODE_TAG);

/// Combines two child digests into their parent: one compression.
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(&left.0);
    block[32..].copy_from_slice(&right.0);
    Digest(NODE.chain(&block))
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
/// Returns the leaf itself for one leaf and [`Digest::ZERO`] for an empty
/// slice.
pub fn merkle_root(leaves: &[Digest]) -> Digest {
    match leaves {
        [] => Digest::ZERO,
        [leaf] => *leaf,
        _ => {
            let mut level = leaves.to_vec();
            while level.len() > 1 {
                fold_level(&mut level);
            }
            level[0]
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::{portable_chain, COMPRESSIONS};

    fn leaves(n: u64) -> Vec<Digest> {
        (0..n).map(|i| Digest::builder().u64(i).finish()).collect()
    }

    /// A node as the chaining value of `tag block ‖ left ‖ right` on the
    /// portable kernel — `NODE`'s constant re-derived from its tag block —
    /// and the level-by-level tree over it: what `merkle_root` must
    /// reproduce.
    fn node_oracle(left: &Digest, right: &Digest) -> Digest {
        let mut blocks = NODE_TAG.as_bytes().to_vec();
        blocks.resize(64, 0);
        blocks.extend_from_slice(&left.0);
        blocks.extend_from_slice(&right.0);
        Digest(portable_chain(&blocks))
    }

    fn root_oracle(leaves: &[Digest]) -> Digest {
        let mut level = leaves.to_vec();
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
    fn every_size_costs_n_minus_1_compressions_and_gives_the_oracle_root() {
        for n in 1..=65u64 {
            let l = leaves(n);
            let (first, last) = (&l[0], &l[n as usize - 1]);
            assert_eq!(node_hash(first, last), node_oracle(first, last), "n={n}");
            let before = COMPRESSIONS.get();
            let root = merkle_root(&l);
            assert_eq!(COMPRESSIONS.get() - before, n as usize - 1, "compressions over {n} leaves");
            assert_eq!(root, root_oracle(&l), "root over {n} leaves (odd promotions included)");
        }
    }

    #[test]
    fn empty_root_is_zero() {
        assert_eq!(merkle_root(&[]), Digest::ZERO);
    }

    #[test]
    fn a_one_leaf_root_is_the_leaf() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), l[0]);
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
        /// Changing any leaf, swapping two of them or appending one changes
        /// the root.
        #[test]
        fn roots_bind_all_leaves(
            n in 1usize..24,
            i in any::<usize>(),
            j in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let (i, j) = (i % n, j % n);
            let leaves: Vec<Digest> = (0..n as u64)
                .map(|i| Digest::builder().u64(seed).u64(i).finish())
                .collect();
            let root = merkle_root(&leaves);
            let mut changed = leaves.clone();
            changed[i] = Digest::builder().u64(seed).str("tampered").finish();
            prop_assert_ne!(merkle_root(&changed), root);
            let mut swapped = leaves.clone();
            swapped.swap(i, j);
            prop_assert_eq!(merkle_root(&swapped) == root, i == j);
            let mut appended = leaves.clone();
            appended.push(leaves[i]);
            prop_assert_ne!(merkle_root(&appended), root);
        }
    }
}
