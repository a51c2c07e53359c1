//! Partition-and-heal properties of the IRMC-RC channel: a network cut
//! that swallows in-flight casts mid-range must never wedge the channel.
//! After the heal, the senders' stalled-window re-cast (plus the dedup
//! refetch machinery) delivers exactly the slot sequence an unfaulted
//! run delivers — and the re-cast terminates once receivers re-announce
//! their windows, so the channel quiesces again.

mod common;

use common::{blobs, cfg, complete, Blob, Fault, Net};
use proptest::prelude::*;
use spider_irmc::{ChannelMode, IrmcConfig, Variant, RC_RECAST_TICKS};
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

/// Runs one partition-and-heal scenario: the first half of the stream
/// goes through cleanly, the cut eats the second half mid-range, the
/// heal lets the stalled-window re-cast (plus up to three supervision
/// rounds) repair the damage. Returns each receiver's delivered slot
/// sequence plus its ready log.
fn run_partition(cfg: IrmcConfig, seed: u64, cut: Fault, n_msgs: u64) -> RunOutcome {
    let mut net = Net::new(cfg, seed, true);
    let msgs = blobs(1, n_msgs);
    let half = (n_msgs / 2).max(1) as usize;
    net.send_all(0, Position(1), &msgs[..half]);
    net.pump();
    net.fire_timers();
    // The partition forms; everything sent across it from now on is lost.
    net.fault = cut;
    net.send_all(0, Position(half as u64 + 1), &msgs[half..]);
    net.pump();
    net.fire_timers();
    // Heal, then let the periodic tick cross the recast threshold.
    net.fault = Fault::None;
    net.tick_senders(RC_RECAST_TICKS as usize + 1);
    net.settle();
    let delivered = (0..3).map(|r| net.delivered(r, 0, n_msgs)).collect();
    (delivered, net.ready)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A total blackout mid-range wedges nothing: after the heal the
    /// re-cast delivers the byte-identical slot sequence of an unfaulted
    /// run, for both the legacy and the dedup RC fan-in.
    #[test]
    fn total_blackout_heals_to_unfaulted_sequence(
        seed in 0u64..10_000,
        n_msgs in 1u64..40,
        chunk in 1usize..9,
    ) {
        for cfg in [legacy_cfg(chunk), dedup_cfg(chunk)] {
            let (clean, _) = run_partition(cfg.clone(), seed, Fault::None, n_msgs);
            let (healed, _) = run_partition(cfg, seed, Fault::Blackout, n_msgs);
            prop_assert_eq!(&healed, &clean);
            prop_assert_eq!(healed, vec![complete(n_msgs); 3], "all delivers after the heal");
        }
    }

    /// Severing a dedup primary carrier from the receivers while the
    /// vouchers still get through costs nothing even *without* a heal:
    /// the vouch quorum arms the supervision timer and the content is
    /// refetched from a voucher's retained copy.
    #[test]
    fn dedup_carrier_severed_from_vouchers_still_delivers(
        seed in 0u64..10_000,
        n_msgs in 1u64..40,
        chunk in 1usize..9,
        severed in 0usize..4,
    ) {
        let mut net = Net::new(dedup_cfg(chunk), seed, true);
        net.fault = Fault::FromSender(severed);
        net.send_all(0, Position(1), &blobs(1, n_msgs));
        net.pump();
        net.settle();
        for r in 0..3 {
            prop_assert_eq!(net.delivered(r, 0, n_msgs), complete(n_msgs), "receiver {}", r);
        }
    }

    /// Convergence: when the receivers delivered everything and moved
    /// their windows but the partition ate the `Move`s, the re-cast does
    /// not loop forever — the below-window duplicates make the receivers
    /// re-announce their window starts, the senders garbage-collect, and
    /// the channel quiesces.
    #[test]
    fn recast_converges_after_receivers_moved_on(
        seed in 0u64..10_000,
        n_msgs in 1u64..40,
        chunk in 1usize..9,
    ) {
        let mut net = Net::new(dedup_cfg(chunk), seed, true);
        net.send_all(0, Position(1), &blobs(1, n_msgs));
        net.pump();
        net.fire_timers();
        // Receivers consume and move their windows — but the cut eats
        // every `Move`, so the senders still believe nothing happened.
        net.fault = Fault::Blackout;
        for r in 0..3 {
            net.move_receiver(r, 0, Position(n_msgs + 1));
        }
        net.pump();
        prop_assert!(
            net.senders.iter().all(|s| s.has_unacked()),
            "with the Moves lost, every sender still holds retained content"
        );
        net.fault = Fault::None;
        net.tick_senders(RC_RECAST_TICKS as usize + 1);
        prop_assert!(
            net.senders.iter().all(|s| !s.has_unacked()),
            "the re-announced windows let the senders garbage-collect"
        );
    }

    /// Determinism: the same seed replays the same partition-and-heal
    /// scenario to the identical delivery AND ready-announcement
    /// schedule — the disaster suite's replayability rests on this.
    #[test]
    fn partition_heal_double_run_is_deterministic(
        seed in 0u64..10_000,
        n_msgs in 1u64..24,
        chunk in 1usize..9,
    ) {
        let (d1, log1) = run_partition(dedup_cfg(chunk), seed, Fault::Blackout, n_msgs);
        let (d2, log2) = run_partition(dedup_cfg(chunk), seed, Fault::Blackout, n_msgs);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(log1, log2);
    }
}
