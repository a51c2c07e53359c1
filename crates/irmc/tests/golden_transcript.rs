//! Golden digests of the IRMC endpoints' action transcripts: scripted
//! 4-sender / 3-receiver runs under `CostModel::default()` with in-order
//! delivery, pinned to what the endpoints emitted at the commit that
//! introduced this file. Per emitted frame the transcript holds
//! `(from, to, trace_kind, wire_size)`, per charge `(amount, label)` in
//! position, plus every `Ready` / `WindowMoved` / `Unblocked` /
//! `SetTimer` and every rejection — the modelled plane of the channel,
//! none of the wire enum's variant names. A refactor may change how these
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
        (RC, 1, 0xa2e5_fdb7_1115_a1f5),
        (RC, 2, 0xfbc2_e4ef_763d_42bb),
        (RC, 32, 0x73f1_b24e_030f_bf4b),
        (DEDUP, 1, 0xa2e5_fdb7_1115_a1f5),
        (DEDUP, 2, 0xdd51_65aa_8f75_5a3f),
        (DEDUP, 32, 0x9c9e_3c58_547d_13b3),
        (SC, 1, 0x3270_726b_c1a0_1c59),
        (SC, 2, 0x9c88_b3af_3ea6_9d97),
        (SC, 32, 0x23e0_4229_5543_ace3),
        (SC_BUNDLE, 1, 0x3270_726b_c1a0_1c59),
        (SC_BUNDLE, 2, 0x74ab_1d3f_2133_70c9),
        (SC_BUNDLE, 32, 0x82f7_4145_e9d7_3e81),
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
        [(SC, 0x8f34_4585_c7e0_da2a), (SC_BUNDLE, 0x4149_85bd_f998_20fc)]
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
        [(SC, 0xe4a1_e449_9576_fae4), (SC_BUNDLE, 0x68fc_f2b9_482d_d432)]
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
    for ((name, mode), expected) in [(RC, 0x0fb3_000b_e322_dcbd), (DEDUP, 0x686a_156a_e04f_2f70)] {
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
    pin("silent carrier", net, 0x3774_d6a2_b15f_7751);
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
    pin("dedup diverged cuts", net, 0xe8df_1730_4b1b_00ad);
}
