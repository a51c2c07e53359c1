//! Golden digests of the IRMC endpoints' action transcripts: scripted
//! 4-sender / 3-receiver runs under `CostModel::default()` with in-order
//! delivery, pinned to what the endpoints emitted at the commit that
//! introduced this file. Per emitted frame the transcript holds
//! `(from, to, trace_kind, wire_size)`, per charge `(amount, label)` in
//! position, plus every `Ready` / `WindowMoved` / `Unblocked` /
//! `SetTimer`, every rejection and what each poll returned (the payload,
//! not how it arrived) — the modelled plane of the channel, none of the
//! wire enum's variant names. A refactor may change how these
//! scripts are spelled, never a digest.

mod common;

use common::{blobs, cfg, fnv64, Fault, Net};
use spider_crypto::CostModel;
use spider_irmc::{ChannelMode, IrmcConfig, RC_RECAST_TICKS};
use spider_types::Position;

const RC: (&str, ChannelMode) = ("rc", ChannelMode::ReliableCast { dedup: false });
const DEDUP: (&str, ChannelMode) = ("dedup", ChannelMode::ReliableCast { dedup: true });
const SC: (&str, ChannelMode) = ("sc-overlap", ChannelMode::SenderCast { overlap: true });
const SC_BUNDLE: (&str, ChannelMode) = ("sc-bundle", ChannelMode::SenderCast { overlap: false });

fn priced(mode: ChannelMode, capacity: u64) -> IrmcConfig {
    cfg(mode, capacity, 32).with_cost(CostModel::default())
}

#[track_caller]
fn pin(what: &str, net: Net, expected: u64) {
    let transcript = net.transcript.expect("recording");
    let got = fnv64(&transcript);
    assert_eq!(got, expected, "{what} moved: digest {got:#018x}, transcript:\n{transcript}");
}

/// Every receiver polls `first..first + n` and notes what it got.
fn poll(net: &mut Net, first: u64, n: u64) {
    for r in 0..net.receivers.len() {
        for p in first..first + n {
            let got = net.receivers[r].try_receive(0, Position(p));
            net.note(format_args!("r{r} poll {p}: {got:?}"));
        }
    }
}

/// Two windows of batches of `len` slots: the second window's worth is
/// submitted while the first is still in flight (blocked), and flows
/// once the receivers move their windows (unblocked).
fn two_windows(mode: ChannelMode, len: u64) -> Net {
    let capacity = 64;
    let mut net = Net::new(priced(mode, capacity), 0, false).record();
    let mut first = 1;
    while first <= 2 * capacity {
        net.send_all(0, Position(first), &blobs(first, len));
        first += len;
    }
    net.pump();
    net.tick_senders(1);
    poll(&mut net, 1, capacity + 1);
    for w in 1..=2 {
        for r in 0..3 {
            net.move_receiver(r, 0, Position(w * capacity + 1));
        }
        net.pump();
        net.tick_senders(1);
        poll(&mut net, w * capacity + 1, capacity);
    }
    net
}

#[test]
fn every_mode_and_batch_length_over_two_windows() {
    for ((name, mode), len, expected) in [
        (RC, 1, 0xbcae_3316_cf38_9c76),
        (RC, 2, 0x1e87_1fc9_151c_6958),
        (RC, 32, 0xbc38_287c_0521_1bb8),
        (DEDUP, 1, 0xbcae_3316_cf38_9c76),
        (DEDUP, 2, 0xa1ae_b5df_86c0_ea30),
        (DEDUP, 32, 0x6aba_f712_a4be_646c),
        (SC, 1, 0x744e_c45a_1e01_68ce),
        (SC, 2, 0xa307_62ba_056e_afa0),
        (SC, 32, 0xab6f_37da_4b90_793c),
        (SC_BUNDLE, 1, 0x744e_c45a_1e01_68ce),
        (SC_BUNDLE, 2, 0x8280_de48_9134_0a06),
        (SC_BUNDLE, 32, 0x868a_ae67_2252_fb66),
    ] {
        pin(&format!("{name} x{len}"), two_windows(mode, len), expected);
    }
}

/// A one-slot run, a four-slot run and another one-slot run: both kinds
/// of retained content and both kinds of certificate outstanding at once.
fn mixed_runs(net: &mut Net) {
    net.send_all(0, Position(1), &blobs(1, 1));
    net.send_all(0, Position(2), &blobs(2, 4));
    net.send_all(0, Position(6), &blobs(6, 1));
}

#[test]
fn sc_collector_switch_reships_one_slot_and_range_certificates() {
    for ((name, mode), expected) in
        [(SC, 0x9f25_134d_2eed_a00b), (SC_BUNDLE, 0x8c1c_4cf7_b516_6251)]
    {
        let mut net = Net::new(priced(mode, 16), 0, false).record();
        // Receiver 0's default collector assembles certificates but never
        // ships them.
        net.fault = Fault::DropCerts(0, 0);
        mixed_runs(&mut net);
        net.pump();
        poll(&mut net, 1, 6);
        // Progress announcements arm receiver 0's supervision timer; its
        // expiry selects the next collector, which re-ships everything.
        net.tick_senders(1);
        net.fire_timers();
        poll(&mut net, 1, 6);
        pin(&format!("{name} collector switch"), net, expected);
    }
}

/// Four senders, four different cuts of the slots `1..=4`: no two range
/// statements match.
fn diverged_cuts(net: &mut Net) {
    for (s, cuts) in
        [&[(1, 4)][..], &[(1, 2), (3, 2)], &[(1, 3), (4, 1)], &[(1, 1), (2, 3)]].iter().enumerate()
    {
        for &(first, n) in *cuts {
            net.send_from(s, 0, Position(first), &blobs(first, n));
        }
    }
}

#[test]
fn sc_diverged_cuts_fall_back_to_per_slot_shares() {
    for ((name, mode), expected) in
        [(SC, 0xf6a8_d45b_88d7_db60), (SC_BUNDLE, 0x7a30_cdd2_42fe_5a16)]
    {
        let mut net = Net::new(priced(mode, 16), 0, false).record();
        diverged_cuts(&mut net);
        net.pump();
        poll(&mut net, 1, 4);
        // Two stalled ticks trigger the fallback; a third announces it.
        net.tick_senders(4);
        poll(&mut net, 1, 4);
        pin(&format!("{name} diverged cuts"), net, expected);
    }
}

#[test]
fn rc_blackout_recasts_and_stale_senders_are_reminded() {
    for ((name, mode), expected) in [(RC, 0xddaf_bb27_99d3_daf6), (DEDUP, 0xda99_5e29_38e7_ba91)] {
        let mut net = Net::new(priced(mode, 16), 0, false).record();
        // Everything cast during the blackout is lost.
        net.fault = Fault::Blackout;
        mixed_runs(&mut net);
        net.pump();
        net.fault = Fault::None;
        net.tick_senders(RC_RECAST_TICKS as usize + 1);
        net.fire_timers();
        poll(&mut net, 1, 6);
        // The receivers move on, but a second blackout eats their `Move`s:
        // the next recast lands below the windows and is answered with a
        // re-announcement, after which the senders let go.
        net.fault = Fault::Blackout;
        for r in 0..3 {
            net.move_receiver(r, 0, Position(7));
        }
        net.pump();
        net.fault = Fault::None;
        net.tick_senders(RC_RECAST_TICKS as usize + 1);
        for i in 0..4 {
            let (unacked, slots) = (net.senders[i].has_unacked(), net.senders[i].unacked_slots());
            net.note(format_args!("s{i} unacked {unacked} {slots}"));
        }
        pin(&format!("{name} blackout"), net, expected);
    }
}

#[test]
fn dedup_silent_carrier_is_refetched_from_a_voucher() {
    let c = priced(DEDUP.1, 16);
    // The rotated carrier of the range starting at 1 is the one sender
    // that ships no vouch for it.
    let mut probe = Net::new(c.clone(), 0, false).record();
    probe.send_all(0, Position(1), &blobs(1, 4));
    let carrier = (0..4)
        .find(|s| {
            !probe.transcript.as_ref().expect("recording").contains(&format!("s{s} > r0 vouch"))
        })
        .expect("one sender carries");
    let mut net = Net::new(c, 0, false).record();
    net.fault = Fault::FromSender(carrier);
    net.send_all(0, Position(1), &blobs(1, 4));
    net.pump();
    poll(&mut net, 1, 4);
    net.fire_timers();
    poll(&mut net, 1, 4);
    net.fire_timers();
    pin("silent carrier", net, 0xd04b_70af_c97e_6659);
}

#[test]
fn dedup_diverged_cuts_fetch_every_copy_and_credit_per_slot() {
    let mut net = Net::new(priced(DEDUP.1, 16), 0, false).record();
    diverged_cuts(&mut net);
    net.pump();
    poll(&mut net, 1, 4);
    net.fire_timers();
    poll(&mut net, 1, 4);
    net.fire_timers();
    pin("dedup diverged cuts", net, 0x0805_08b6_8e52_67f8);
}
