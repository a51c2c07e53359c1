//! End-to-end IRMC tests: both variants driven through a miniature
//! network pump, with Byzantine senders, lagging receivers, and random
//! schedules checking the paper's IRMC-Correctness and IRMC-Liveness
//! properties (§A.5).

mod common;

use common::{blobs, cfg, complete, Blob, Fault, Net, Wire};
use proptest::prelude::*;
use spider_irmc::{ChannelMsg, ReceiveResult, Run, SendStatus, Variant};
use spider_types::Position;

const RC: Variant = Variant::ReceiverCollect;
const SC: Variant = Variant::SenderCollect;

/// What every listed receiver holds for the slots `1..=n`.
fn assert_delivered(net: &mut Net, receivers: std::ops::Range<usize>, n: u64, why: &str) {
    for r in receivers {
        assert_eq!(net.delivered(r, 0, n), complete(n), "receiver {r}: {why}");
    }
}

#[test]
fn rc_channel_delivers_end_to_end() {
    let mut net = Net::new(cfg(RC, 8, 32), 1, false);
    net.send_all(0, Position(1), &blobs(1, 1));
    net.pump();
    assert_delivered(&mut net, 0..3, 1, "fs + 1 matching casts");
}

#[test]
fn sc_channel_delivers_end_to_end() {
    let mut net = Net::new(cfg(SC, 8, 32), 1, false);
    net.send_all(0, Position(1), &blobs(1, 1));
    net.pump();
    assert_delivered(&mut net, 0..3, 1, "one certificate per receiver");
}

#[test]
fn capacity_limits_in_flight_positions_until_receivers_advance() {
    let mut net = Net::new(cfg(RC, 2, 32), 1, false);
    // Send positions 1..=4 from all senders; only 1 and 2 fit the window.
    for p in 1..=4u64 {
        net.send_all(0, Position(p), &blobs(p, 1));
    }
    net.pump();
    assert_eq!(
        net.receivers[0].try_receive(0, Position(3)),
        ReceiveResult::Pending,
        "position 3 is above the window"
    );
    // Receivers consume 1 and 2 and move their windows to 3.
    for r in 0..3 {
        net.move_receiver(r, 0, Position(3));
    }
    net.pump(); // Moves reach senders; blocked sends flush back.
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(0, Position(3)).into_payload(), Some(Blob::of(3)));
        assert_eq!(r.try_receive(0, Position(4)).into_payload(), Some(Blob::of(4)));
    }
}

#[test]
fn lagging_receiver_gets_too_old_after_peer_moves() {
    // Receivers 0 and 1 advance to position 11; receiver 2 stays. Senders'
    // windows move (fr + 1 = 2 confirmations), so old slots are gone.
    let mut net = Net::new(cfg(RC, 4, 32), 1, false);
    net.send_all(0, Position(1), &blobs(1, 1));
    net.pump();
    for r in 0..2 {
        net.move_receiver(r, 0, Position(11));
    }
    net.pump();
    // Senders' windows are now [11, 14]: sending position 5 reports stale.
    let st = net.senders[0].send_batch(0, Position(5), blobs(5, 1), &mut Vec::new());
    assert_eq!(st, SendStatus::TooOld(Position(11)));
}

#[test]
fn byzantine_minority_cannot_force_delivery() {
    // fs = 1: a single faulty sender submits garbage for a position no
    // correct sender uses. It must never deliver.
    let mut net = Net::new(cfg(RC, 8, 32), 1, false);
    net.send_from(3, 0, Position(2), &[Blob::of(666)]);
    net.pump();
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(0, Position(2)), ReceiveResult::Pending);
    }
}

#[test]
fn equivocating_sender_cannot_split_receivers() {
    // Correct senders 0..3 send A; faulty sender 3 sends B. Every receiver
    // delivers A (B has at most weight 1 < fs + 1).
    let mut net = Net::new(cfg(RC, 8, 32), 1, true);
    for s in 0..3 {
        net.send_from(s, 0, Position(1), &blobs(1, 1));
    }
    net.send_from(3, 0, Position(1), &[Blob::of(2)]);
    net.pump();
    assert_delivered(&mut net, 0..3, 1, "the correct senders' content");
}

/// Sender 0 (receiver 0's default collector) is faulty: it assembles
/// certificates for the `n` submitted slots but never ships them to
/// receiver 0 — at most the early content of a range (§A.9 overlap),
/// which must not deliver on its own. The collector switch restores
/// delivery.
fn faulty_collector_is_replaced(n: u64) {
    let mut net = Net::new(cfg(SC, 16, 8), 1, false);
    net.fault = Fault::DropCerts(0, 0);
    net.send_all(0, Position(1), &blobs(1, n));
    net.pump();
    let nothing = vec![None; n as usize];
    assert_eq!(net.delivered(0, 0, n), nothing, "no certificate, no delivery");
    assert_delivered(&mut net, 1..3, n, "other receivers certified normally");
    // Progress announcements tell receiver 0 that fs + 1 senders hold the
    // certificate; its supervision timer arms, and its expiry selects the
    // next collector, which re-ships what it certified.
    net.tick_senders(1);
    assert_eq!(net.timers, [(0, 0)], "receiver 0 armed its collector timer");
    net.fire_timers();
    assert_delivered(&mut net, 0..1, n, "collector switch restores delivery");
}

#[test]
fn sc_faulty_collector_is_replaced_and_content_flows() {
    faulty_collector_is_replaced(1);
}

#[test]
fn sc_range_faulty_collector_is_replaced_and_content_flows() {
    faulty_collector_is_replaced(4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// IRMC-Correctness I + Liveness I under random delivery schedules,
    /// for both variants: content sent by all correct senders is delivered
    /// to every receiver; nothing else is ever delivered.
    #[test]
    fn random_schedule_delivery(
        seed in 0u64..10_000,
        variant_sc in any::<bool>(),
        n_msgs in 1u64..20,
    ) {
        let mut net = Net::new(cfg(if variant_sc { SC } else { RC }, 64, 32), seed, true);
        for p in 1..=n_msgs {
            net.send_all(0, Position(p), &blobs(p, 1));
        }
        net.pump();
        let want = [complete(n_msgs), vec![None]].concat();
        for r in 0..3 {
            prop_assert_eq!(net.delivered(r, 0, n_msgs + 1), want.clone());
        }
    }

    /// The same for contiguous runs submitted in one call, whatever the
    /// chunking — runs of one slot included.
    #[test]
    fn random_schedule_range_delivery(
        seed in 0u64..10_000,
        variant_sc in any::<bool>(),
        n_msgs in 1u64..40,
        chunk in 1usize..9,
    ) {
        let mut net = Net::new(cfg(if variant_sc { SC } else { RC }, 64, chunk), seed, true);
        net.send_all(0, Position(1), &blobs(1, n_msgs));
        net.pump();
        let want = [complete(n_msgs), vec![None]].concat();
        for r in 0..3 {
            prop_assert_eq!(net.delivered(r, 0, n_msgs + 1), want.clone());
        }
    }

    /// IRMC-Correctness II: windows only move when a correct participant
    /// allowed it. With a single faulty sender spamming Move requests, no
    /// receiver window moves.
    #[test]
    fn faulty_sender_moves_alone_never_shift_windows(seed in 0u64..10_000, target in 2u64..100) {
        prop_assert_eq!(window_after_sender_moves(seed, 2..3, target), Position(1));
    }

    /// Sender-requested window shifts do take effect once fs + 1 senders
    /// ask (IRMC-Liveness III).
    #[test]
    fn quorum_sender_moves_shift_windows(seed in 0u64..10_000, target in 2u64..100) {
        prop_assert_eq!(window_after_sender_moves(seed, 0..2, target), Position(target));
    }

    /// No slot ever delivers without signature coverage of its digest:
    /// tampering one member of every in-flight run invalidates its root,
    /// so the WHOLE run is rejected on every receiver — including the
    /// untampered member slots.
    #[test]
    fn tampered_range_member_rejects_whole_range(
        seed in 0u64..10_000,
        n_msgs in 1u64..20,
        tamper in 0u64..20,
    ) {
        let mut net = Net::new(cfg(RC, 64, 64), seed, true);
        net.send_all(0, Position(1), &blobs(1, n_msgs));
        // Corrupt the tampered member in every in-flight copy (the
        // signatures still cover the original content).
        for item in net.wire.iter_mut() {
            if let Wire::ToReceiver { msg: ChannelMsg::Cast { msgs, .. }, .. } = item {
                let mut tampered = msgs.to_vec();
                tampered[(tamper % n_msgs) as usize] = Blob::of(666);
                *msgs = Run::new(tampered);
            }
        }
        net.pump();
        for r in 0..3 {
            prop_assert_eq!(net.delivered(r, 0, n_msgs), vec![None; n_msgs as usize]);
        }
    }

    /// SC runs with certificates withheld (gap between claimed progress
    /// and delivered certificates) never deliver from content alone.
    #[test]
    fn sc_withheld_certificates_never_deliver_early(seed in 0u64..10_000, n_msgs in 1u64..16) {
        let mut net = Net::new(cfg(SC, 64, 64), seed, true);
        // Receiver 0's collector withholds its certificates — only early
        // content and shares flow.
        net.fault = Fault::DropCerts(0, 0);
        net.send_all(0, Position(1), &blobs(1, n_msgs));
        net.pump();
        prop_assert_eq!(net.delivered(0, 0, n_msgs), vec![None; n_msgs as usize]);
    }
}

/// The window start every receiver ends up with after the listed senders
/// asked to move it to `target`.
fn window_after_sender_moves(seed: u64, senders: std::ops::Range<usize>, target: u64) -> Position {
    let mut net = Net::new(cfg(RC, 8, 32), seed, true);
    for s in senders {
        let mut out = Vec::new();
        net.senders[s].move_window(0, Position(target), &mut out);
        net.absorb_sender(s, out);
    }
    net.pump();
    let starts: Vec<Position> = net.receivers.iter().map(|r| r.window(0).start()).collect();
    assert!(starts.iter().all(|s| *s == starts[0]), "receivers agree: {starts:?}");
    starts[0]
}

#[test]
fn single_byzantine_receiver_cannot_advance_sender_windows() {
    // IRMC-Correctness II, sender side: a sender's window follows the
    // fr+1-highest receiver request, so one lying receiver (fr = 1)
    // cannot make senders discard undelivered messages.
    let mut net = Net::new(cfg(RC, 4, 32), 21, false);
    // Receiver 2 claims everyone may discard up to position 1000.
    net.move_receiver(2, 0, Position(1000));
    net.pump();
    for s in &net.senders {
        assert_eq!(s.window(0).start(), Position(1), "one receiver must not move sender windows");
    }
    // Content sent afterwards still reaches the honest receivers.
    net.send_all(0, Position(1), &blobs(1, 1));
    net.pump();
    assert_delivered(&mut net, 0..2, 1, "honest receivers unaffected");
}

#[test]
fn capacity_one_channel_is_live_with_stop_and_wait() {
    // The minimum legal capacity degenerates to stop-and-wait: each
    // position only flows after every receiver consumed the previous one.
    let mut net = Net::new(cfg(RC, 1, 32), 22, false);
    for p in 1..=5u64 {
        net.send_all(0, Position(p), &blobs(p, 1));
        net.pump();
        for r in 0..3 {
            let got = net.receivers[r].try_receive(0, Position(p));
            assert_eq!(got.into_payload(), Some(Blob::of(p)), "position {p}");
            net.move_receiver(r, 0, Position(p + 1));
        }
        net.pump();
    }
}

#[test]
fn subchannels_are_independent_queues() {
    // Blocking subchannel 1 at its capacity must not affect subchannel 2
    // (the request channel runs one subchannel per client, §3.2).
    let mut net = Net::new(cfg(RC, 2, 32), 23, false);
    // Fill subchannel 1 beyond capacity: positions 3.. block.
    for p in 1..=4u64 {
        net.send_all(1, Position(p), &blobs(p, 1));
    }
    net.pump();
    assert_eq!(net.receivers[0].try_receive(1, Position(3)), ReceiveResult::Pending);
    // Subchannel 2 is unaffected.
    net.send_all(2, Position(1), &[Blob::of(100)]);
    net.pump();
    for r in &mut net.receivers {
        assert_eq!(r.try_receive(2, Position(1)).into_payload(), Some(Blob::of(100)));
    }
}
