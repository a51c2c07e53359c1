//! End-to-end properties of the IRMC-RC digest-only fan-in (dedup):
//! under message reordering, a crashed carrier, or a Byzantine carrier
//! shipping tampered content, a dedup channel delivers the exact same
//! slot sequence as a legacy IRMC-RC channel — and it does so
//! deterministically (double-run equivalence, covering the refetch
//! fallback).

mod common;

use common::{blobs, cfg, complete, Blob, Fault, Net};
use proptest::prelude::*;
use spider_irmc::{ChannelMode, IrmcConfig, Variant};
use spider_types::Position;

/// One scenario outcome: per-receiver delivered slot sequences plus the
/// per-receiver ready announcements, in arrival order.
type RunOutcome = (Vec<Vec<Option<Blob>>>, Vec<Vec<(u64, Position)>>);

fn legacy_cfg(chunk: usize) -> IrmcConfig {
    cfg(Variant::ReceiverCollect, 64, chunk)
}

fn dedup_cfg(chunk: usize) -> IrmcConfig {
    cfg(ChannelMode::ReliableCast { dedup: true }, 64, chunk)
}

/// Runs one scenario to completion (including up to three supervision
/// rounds, enough for any single-fault refetch) and returns each
/// receiver's delivered slot sequence plus its ready log.
fn run(cfg: IrmcConfig, seed: u64, fault: Fault, n_msgs: u64) -> RunOutcome {
    let mut net = Net::new(cfg, seed, true);
    net.fault = fault;
    net.send_all(0, Position(1), &blobs(1, n_msgs));
    net.pump();
    net.settle();
    let delivered = (0..3).map(|r| net.delivered(r, 0, n_msgs)).collect();
    (delivered, net.ready)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under random reordering, dedup delivers the byte-identical slot
    /// sequence the legacy RC fan-in delivers — every slot, every
    /// receiver.
    #[test]
    fn dedup_matches_legacy_under_reordering(
        seed in 0u64..10_000,
        n_msgs in 1u64..40,
        chunk in 1usize..9,
    ) {
        let (legacy, _) = run(legacy_cfg(chunk), seed, Fault::None, n_msgs);
        let (dedup, _) = run(dedup_cfg(chunk), seed, Fault::None, n_msgs);
        prop_assert_eq!(&dedup, &legacy);
        prop_assert_eq!(dedup, vec![complete(n_msgs); 3], "every slot delivers on every receiver");
    }

    /// A crashed sender (its content frames are lost — including every
    /// range it carries) does not cost a single slot: the vouch quorum
    /// plus refetch recovers exactly what legacy RC delivers.
    #[test]
    fn dedup_matches_legacy_under_carrier_drop(
        seed in 0u64..10_000,
        n_msgs in 1u64..40,
        chunk in 1usize..9,
        faulty in 0usize..4,
    ) {
        let fault = Fault::DropContent(faulty);
        let (legacy, _) = run(legacy_cfg(chunk), seed, fault, n_msgs);
        let (dedup, _) = run(dedup_cfg(chunk), seed, fault, n_msgs);
        prop_assert_eq!(&dedup, &legacy);
        prop_assert_eq!(dedup, vec![complete(n_msgs); 3], "every slot survives a crashed carrier");
    }

    /// A Byzantine carrier shipping tampered content cannot corrupt or
    /// stall delivery: the tampered copy is rejected (signature or vouch
    /// root mismatch) and the honest content is refetched.
    #[test]
    fn dedup_matches_legacy_under_byzantine_carrier(
        seed in 0u64..10_000,
        n_msgs in 1u64..40,
        chunk in 1usize..9,
        faulty in 0usize..4,
    ) {
        let fault = Fault::TamperContent(faulty);
        let (legacy, _) = run(legacy_cfg(chunk), seed, fault, n_msgs);
        let (dedup, _) = run(dedup_cfg(chunk), seed, fault, n_msgs);
        prop_assert_eq!(&dedup, &legacy);
        prop_assert_eq!(dedup, vec![complete(n_msgs); 3], "no slot corrupted or stalled");
    }

    /// Determinism: the same seed produces the identical delivery AND the
    /// identical ready-announcement schedule twice in a row — including
    /// runs that exercise the refetch fallback (dropped carrier).
    #[test]
    fn dedup_double_run_is_deterministic(
        seed in 0u64..10_000,
        n_msgs in 1u64..24,
        chunk in 1usize..9,
    ) {
        let fault = Fault::DropContent(0);
        let (d1, log1) = run(dedup_cfg(chunk), seed, fault, n_msgs);
        let (d2, log2) = run(dedup_cfg(chunk), seed, fault, n_msgs);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(log1, log2);
    }
}
