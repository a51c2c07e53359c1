//! The bytes replicas sign for a checkpoint, pinned.
//!
//! `golden_model` pins modelled numbers, which do not see the snapshot
//! encoding: every charge is computed from the snapshot's length alone.
//! What replicas sign is [`Snapshot::hash`] over the application's parts,
//! and what the oracles compare is [`Application::state_digest`]. A change
//! to how the store lays out, cuts or hashes its state moves these values
//! even when every modelled number stays put, and two builds that disagree
//! on them cannot certify each other's checkpoints.

use bytes::Bytes;
use spider::{Application, Snapshot};
use spider_app::{kv_op_factory, KvOp, KvStore};
use spider_types::OpKind;

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// 1 000 paper-sized (200-byte) puts over 700 keys, so 300 of them
/// overwrite, with a checkpoint after every 250, then one put whose request
/// carries bytes after its value.
fn fixed_store() -> (KvStore, Vec<String>) {
    let ops = kv_op_factory(700);
    let mut store = KvStore::new();
    let mut hashes = Vec::new();
    for seq in 0..1_000u64 {
        store.execute(&ops(seq, OpKind::Write, 200));
        if seq % 250 == 249 {
            hashes.push(hex(Snapshot::new(store.snapshot_parts()).hash().0));
        }
    }
    let mut padded = KvOp::put(b"padded", vec![7; 40]).encode().to_vec();
    padded.extend_from_slice(b"trailing");
    store.execute(&Bytes::from(padded));
    (store, hashes)
}

#[test]
fn a_fixed_store_signs_the_same_bytes() {
    let (mut store, hashes) = fixed_store();
    assert_eq!(
        hashes,
        [
            "73156e3e8ffec8074af8af74c1844cbbf31e781e48b53d40db9d70902a739fb9",
            "25a138bf74469a53d447072e674f1eeae15c0a1835266cabc63e87887c8bc02b",
            "1a24d1788b21f1196992f0c6f78aa69caafdf340b07eacbe2f4fdeeb7fd82e16",
            "39d3ac5087cdc59f4184cb53620a6abc76edc1ca1ea0ad888cc112a9f151f656",
        ],
        "the snapshot hash after every 250 puts"
    );
    let snapshot = Snapshot::new(store.snapshot_parts());
    assert_eq!(snapshot.parts().len(), 258);
    assert_eq!(snapshot.len(), 139_364);
    assert_eq!(
        hex(snapshot.hash().0),
        "c4ac024298f69914a7e98e214c0d3a04611e3e93e79810b9e83872f65693a028"
    );
    assert_eq!(
        hex(store.state_digest().0),
        "78b7139f350843bcde4bd3854331f5f1a536bd51bc3dd6e632049a24cb3b8d09"
    );
    assert_eq!(
        hex(store.map_digest().0),
        "5bd0822815bfd4d4d5f1a0a8e6b7cb42f78e3ea446d43deb6804c024bb06700c"
    );

    // A store restored from those parts signs the same value.
    let mut restored = KvStore::new();
    assert!(restored.restore(snapshot.parts()));
    assert_eq!(Snapshot::new(restored.snapshot_parts()).hash(), snapshot.hash());
    assert_eq!(restored.state_digest(), store.state_digest());
}
