//! Host cost of one execution checkpoint against the size of the store.
//!
//! `checkpoint/{n}_keys_dirty32` is what an execution replica does every
//! `ke` = 32 requests: ask the store for its parts after 32 puts (the
//! buckets they landed in are re-encoded and re-hashed, every other part is
//! the previous snapshot's), put the `(sn, replies, app length)` header
//! part in front, and hand the list to the checkpoint component, which
//! hashes the part digests and signs. `checkpoint_full/{n}_keys` is the
//! single-buffer scheme it replaced: serialize the whole store and hash
//! it. The first should barely move with `n`, the second grows with it.
//! `restore/{n}_keys` is what a lagging replica does with a fetched
//! checkpoint: an empty store takes over the parts, adopting each bucket's
//! list of records as it is; it grows with `n` but copies no byte.
//! `put/{n}_keys` is one overwrite of a 200-byte value while a checkpoint
//! holds the store's parts, as an execution replica's does until a later
//! one is stable: the first put into a bucket copies the bucket's list of
//! records, `n / 256` handles, and a second one overwrites in place.

use spider::checkpoint::{CheckpointComponent, Part, Snapshot};
use spider::Application;
use spider_app::{KvOp, KvStore};
use spider_bench::time_per_call;
use spider_crypto::{CostModel, Digest, Keyring};
use spider_types::{GroupId, SeqNr};
use std::cell::RefCell;

/// The paper's 200-byte write to key `i`.
fn request(i: u64) -> KvOp {
    KvOp::sized_put(format!("key-{i:06}").as_bytes(), 200, b'x')
}

fn put(store: &mut KvStore, i: u64) {
    store.execute(&request(i).encode());
}

/// The store's parts, as a checkpoint collects them.
fn parts_of(store: &mut KvStore) -> Vec<Part> {
    let mut parts = Vec::new();
    store.snapshot_parts(&mut parts);
    parts
}

fn main() {
    let stores: Vec<(&str, u64, RefCell<KvStore>)> =
        [("1k", 1_000u64), ("4k", 4_000), ("16k", 16_000)]
            .into_iter()
            .map(|(label, keys)| {
                let mut store = KvStore::new();
                (0..keys).for_each(|i| put(&mut store, i));
                parts_of(&mut store);
                (label, keys, RefCell::new(store))
            })
            .collect();

    for (label, keys, store) in &stores {
        let mut cp = CheckpointComponent::new(GroupId(0), 0, 1, Keyring::new(1), CostModel::zero());
        let mut next = 0;
        time_per_call(
            &format!("checkpoint/{label}_keys_dirty32"),
            || {
                // Overwrites, so the store keeps its size.
                (next..next + 32).for_each(|i| put(&mut store.borrow_mut(), i % keys));
                next += 32;
                SeqNr(next)
            },
            |seq| {
                let header = Part::new(vec![0u8; 64].into());
                let parts = parts_of(&mut store.borrow_mut());
                let mut out = Vec::new();
                cp.generate(*seq, Snapshot::new(std::iter::once(header).chain(parts)), &mut out);
                out
            },
        );
    }

    for (label, _, store) in &stores {
        time_per_call(
            &format!("checkpoint_full/{label}_keys"),
            || (),
            |_| Digest::of_bytes(&std::hint::black_box(store).borrow().snapshot()),
        );
    }

    for (label, _, store) in &stores {
        let parts = parts_of(&mut store.borrow_mut());
        time_per_call(
            &format!("restore/{label}_keys"),
            || Some(KvStore::new()),
            |empty| {
                let mut fresh = empty.take().expect("a restore takes a fresh store");
                assert!(fresh.restore(&parts));
                fresh
            },
        );
    }

    for (label, keys, store) in &stores {
        let requests: Vec<_> = (0..*keys).map(|i| request(i).encode()).collect();
        let mut next = 0;
        time_per_call(
            &format!("put/{label}_keys"),
            || parts_of(&mut store.borrow_mut()),
            |_held| {
                next = (next + 1) % requests.len();
                store.borrow_mut().execute(&requests[next])
            },
        );
    }
}
