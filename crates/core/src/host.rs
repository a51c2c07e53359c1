//! Hosting a sans-IO machine on a simulated node.
//!
//! PBFT, the IRMC endpoints and the checkpoint component emit entries into
//! a [`Sink`]: frames for a replica *index*, CPU charges, timer requests,
//! and the events their host reacts to. How the I/O entries become
//! simulator calls is decided here once, for every actor of the workspace:
//! one function per machine, total over its I/O entries, that hands every
//! other entry back. A host's sink is a closure that runs that function on
//! each entry as the machine emits it and reacts to what comes back on the
//! spot, so sends, charges and reactions keep the machine's order (a
//! message departs at the CPU time charged before it) and no list of
//! entries is built. A reaction that needs the machine itself — to call it
//! again, say — waits until the call returns. Timers are the simulator's
//! tag-keyed [`Context::arm`]; no host keeps a timer table.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::checkpoint::{Apply, CheckpointComponent, CpAction, CpTimer};
use crate::directory::Directory;
use crate::keys::{self, AGREEMENT_GROUP};
use crate::messages::{ChannelLeg, CheckpointMsg, SpiderMsg};
use spider_consensus::{Input, Msg, Output, TimerToken};
use spider_irmc::{Action, Content, ReceiverEndpoint, SenderEndpoint};
use spider_sim::Context;
use spider_types::{GroupId, NodeId, SeqNr, Sink, WireSize};

/// Consensus timer tokens are armed under `TAG_PBFT_BASE + token`; hosts
/// keep their own tags below it.
const TAG_PBFT_BASE: u64 = 100;

/// Checkpoint timers are armed under `TAG_CP_BASE + token` (3 and 4);
/// hosts keep their own tags below it.
const TAG_CP_BASE: u64 = 3;

/// The consensus input a fired timer `tag` stands for, if [`pbft_io`]
/// armed it.
pub fn pbft_timer<P>(tag: u64) -> Option<Input<P>> {
    tag.checked_sub(TAG_PBFT_BASE).map(|token| Input::Timer(TimerToken(token)))
}

/// The checkpoint timer a fired timer `tag` stands for, if
/// [`checkpoint_io`] armed it.
pub fn checkpoint_timer(tag: u64) -> Option<CpTimer> {
    [CpTimer::FetchRetry, CpTimer::Gossip].into_iter().find(|t| TAG_CP_BASE + *t as u64 == tag)
}

/// Carries out one consensus output: a message goes to the `peers` entry
/// its index names, wrapped into the deployment's message type; timers
/// are armed and disarmed under the token's tag; CPU is charged to
/// `consensus;handle`. `Deliver`, `ViewChanged` and `Skipped` come back.
pub fn pbft_io<M: WireSize, P>(
    ctx: &mut Context<'_, M>,
    peers: &[NodeId],
    wrap: impl FnOnce(Msg<P>) -> M,
    output: Output<P>,
) -> Option<Output<P>> {
    match output {
        Output::Send { to, msg } => {
            if let Some(&node) = peers.get(to) {
                ctx.send(node, wrap(msg));
            }
        }
        Output::SetTimer { token, delay } => ctx.arm(TAG_PBFT_BASE + token.0, delay),
        Output::CancelTimer { token } => ctx.disarm(TAG_PBFT_BASE + token.0),
        Output::Charge(cost) => ctx.charge_op("consensus", "handle", cost),
        other @ (Output::Deliver { .. } | Output::ViewChanged { .. } | Output::Skipped { .. }) => {
            return Some(other)
        }
    }
    None
}

/// Carries out one IRMC endpoint action, on either side of the channel:
/// a frame becomes the [`ChannelLeg`] of its direction for the `senders`
/// or `receivers` entry its index names, wrapped into the deployment's
/// message type; CPU is charged to `component` under the action's label.
/// `Ready`, `WindowMoved`, `Unblocked` and `SetTimer` come back.
pub fn channel_io<M: WireSize, C: Content>(
    ctx: &mut Context<'_, M>,
    component: &'static str,
    senders: &[NodeId],
    receivers: &[NodeId],
    wrap: impl FnOnce(ChannelLeg<C>) -> M,
    action: Action<C>,
) -> Option<Action<C>> {
    let (to, leg) = match action {
        Action::ToReceiver { to, msg } => (receivers.get(to), ChannelLeg::ToReceiver(msg)),
        Action::ToPeerSender { to, msg } => (senders.get(to), ChannelLeg::Peer(msg)),
        Action::ToSender { to, msg } => (senders.get(to), ChannelLeg::ToSender(msg)),
        Action::Charge(cost, op) => {
            ctx.charge_op(component, op, cost);
            return None;
        }
        other @ (Action::Ready { .. }
        | Action::WindowMoved { .. }
        | Action::Unblocked { .. }
        | Action::SetTimer { .. }) => return Some(other),
    };
    if let Some(&node) = to {
        ctx.send(node, wrap(leg));
    }
    None
}

/// Feeds the sender-side endpoint `ep` a frame of its channel that `from`
/// sent; the endpoint emits into `out`. A peer frame counts from a member
/// of `senders`, a receiver's from a member of `receivers`.
pub fn sender_frame<C: Content>(
    ep: &mut SenderEndpoint<C>,
    senders: &[NodeId],
    receivers: &[NodeId],
    from: NodeId,
    leg: ChannelLeg<C>,
    out: &mut dyn Sink<Action<C>>,
) {
    let index = |group: &[NodeId]| group.iter().position(|n| *n == from);
    // What an endpoint rejects it has charged for; there is nothing to add.
    let _ = match leg {
        ChannelLeg::Peer(m) => index(senders).map(|i| ep.on_peer_message(i, m, out)),
        ChannelLeg::ToSender(m) => index(receivers).map(|i| ep.on_receiver_message(i, m, out)),
        ChannelLeg::ToReceiver(_) => None,
    };
}

/// Like [`sender_frame`] for the receiver-side endpoint, which takes
/// frames from members of `senders` only.
pub fn receiver_frame<C: Content>(
    ep: &mut ReceiverEndpoint<C>,
    senders: &[NodeId],
    from: NodeId,
    leg: ChannelLeg<C>,
    out: &mut dyn Sink<Action<C>>,
) {
    if let (ChannelLeg::ToReceiver(m), Some(i)) = (leg, senders.iter().position(|n| *n == from)) {
        let _ = ep.on_sender_message(i, m, out);
    }
}

/// Runs `call` on the checkpoint component `cp` — the agreement group
/// being one more group of the directory — and carries out what it emits
/// as it emits it: `ToGroup` goes to the other members of the component's
/// group — an execution group's fetch request also to every replica of
/// the other active groups (§3.5: a freshly added or skipped group needs
/// foreign state) — `ToPeer` to the member it names, CPU to `checkpoint`,
/// timers under their tags. The checkpoint the call made stable (a call
/// makes at most one) comes back with what it asks of the replica, to act
/// on once the frames are out.
pub fn checkpoint_io(
    ctx: &mut Context<'_, SpiderMsg>,
    directory: &Directory,
    cp: &mut CheckpointComponent,
    call: impl FnOnce(&mut CheckpointComponent, &Directory, &mut dyn Sink<CpAction>),
) -> Option<(SeqNr, Apply)> {
    let (group, me, _) = cp.seat();
    let frame = |ctx: &mut Context<'_, SpiderMsg>, node: NodeId, msg| {
        ctx.send(node, SpiderMsg::Checkpoint { group, msg });
    };
    let mut stable = None;
    call(cp, directory, &mut |action| match action {
        CpAction::ToGroup(msg) => {
            for (i, &node) in directory.group_replicas(group).iter().enumerate() {
                if i != me {
                    frame(ctx, node, msg.clone());
                }
            }
            if group != AGREEMENT_GROUP && matches!(msg, CheckpointMsg::FetchRequest { .. }) {
                for &other in directory.active_groups().iter().filter(|g| **g != group) {
                    for &node in directory.group_replicas(other).iter() {
                        frame(ctx, node, msg.clone());
                    }
                }
            }
        }
        CpAction::ToPeer { group: target, idx, msg } => {
            if let Some(&node) = directory.group_replicas(target).get(idx) {
                frame(ctx, node, msg);
            }
        }
        CpAction::Stable { seq, apply } => stable = Some((seq, apply)),
        CpAction::Charge(cost, op) => ctx.charge_op("checkpoint", op, cost),
        CpAction::SetTimer { token, delay } => ctx.arm(TAG_CP_BASE + token as u64, delay),
    });
    stable
}

/// Feeds `cp` a checkpoint frame that `from` sent as a member of
/// `sender_group`; the component emits into `out`. It must be such a
/// member; agreement and execution checkpoints never mix; announcements
/// count from the own group only, while fetches cross execution groups
/// (§3.5, all of one size) and a response is checked against the keys of
/// the group that provided it.
pub fn checkpoint_frame(
    cp: &mut CheckpointComponent,
    directory: &Directory,
    from: NodeId,
    sender_group: GroupId,
    msg: CheckpointMsg,
    out: &mut dyn Sink<CpAction>,
) {
    let (group, _, size) = cp.seat();
    if (sender_group == AGREEMENT_GROUP) != (group == AGREEMENT_GROUP) {
        return;
    }
    let Some(idx) = directory.replica_index(sender_group, from) else {
        return;
    };
    match msg {
        CheckpointMsg::Announce { seq, state_hash, sig } if sender_group == group => {
            cp.on_announce(idx, seq, state_hash, sig, out);
        }
        CheckpointMsg::Announce { .. } => {}
        CheckpointMsg::FetchRequest { seq } => cp.on_fetch_request(sender_group, idx, seq, out),
        CheckpointMsg::FetchResponse { seq, state_hash, cert, snapshot } => {
            let provider_keys = keys::group_keys(sender_group, size);
            cp.on_fetch_response(
                sender_group,
                &provider_keys,
                seq,
                state_hash,
                cert,
                snapshot,
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::GroupInfo;
    use spider_consensus::TestPayload;
    use spider_crypto::{CostModel, Digest, Digestible, Keyring};
    use spider_irmc::{ChannelMsg, ReceiverMsg};
    use spider_sim::{Actor, Simulation, Timer, Topology};
    use spider_types::{Position, SimTime, ViewNr};
    use std::cell::RefCell;
    use std::fmt::Debug;
    use std::rc::Rc;

    /// What happened, in order: arrivals, fired timers, handed-back entries.
    type Transcript = Rc<RefCell<Vec<String>>>;

    /// A node that logs every frame reaching it.
    struct Logger(Transcript);
    impl<M: Debug> Actor<M> for Logger {
        fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
            self.0.borrow_mut().push(format!("n{} -> n{}: {msg:?}", from.0, ctx.node_id().0));
        }
    }

    type Script<M> = Box<dyn FnOnce(&mut Context<'_, M>, &Transcript)>;

    /// A node that runs one scripted handler when it starts and logs the
    /// timers that fire on it.
    struct Probe<M>(Option<Script<M>>, Transcript);
    impl<M: 'static> Actor<M> for Probe<M> {
        fn on_start(&mut self, ctx: &mut Context<'_, M>) {
            if let Some(script) = self.0.take() {
                script(ctx, &self.1);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, M>, _: NodeId, _: M) {}
        fn on_timer(&mut self, _: &mut Context<'_, M>, timer: Timer) {
            self.1.borrow_mut().push(format!("timer {}", timer.tag));
        }
    }

    /// `sinks` logging nodes (ids `0..sinks`), then a probe running
    /// `script`; returns the transcript and the probe's attributed CPU.
    fn run<M: Clone + WireSize + Debug + 'static>(
        sinks: u32,
        script: impl FnOnce(&mut Context<'_, M>, &Transcript) + 'static,
    ) -> (Vec<String>, Vec<String>) {
        let topology = Topology::builder().region("r", 1).jitter(0.0).build();
        let mut sim: Simulation<M> = Simulation::new(topology, 1);
        sim.enable_obs();
        let zone = sim.topology().zone("r", 0);
        let log = Transcript::default();
        for _ in 0..sinks {
            sim.add_node(zone, Logger(log.clone()));
        }
        let probe = sim.add_node(zone, Probe(Some(Box::new(script)), log.clone()));
        sim.run_until_quiescent(SimTime::from_secs(1));
        let cpu = sim.obs().report().cpu;
        let cpu = cpu
            .iter()
            .filter(|((node, ..), _)| *node == probe.0)
            .map(|((_, component, op), t)| format!("{component};{op} {t}"))
            .collect();
        let log = log.borrow().clone();
        (log, cpu)
    }

    fn nodes(ids: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        ids.into_iter().map(NodeId).collect()
    }

    /// A machine that emits the scripted entries.
    fn emit_all<T>(entries: Vec<T>, out: &mut dyn Sink<T>) {
        for entry in entries {
            out.emit(entry);
        }
    }

    #[test]
    fn pbft_io_carries_out_the_io_entries_in_order_and_hands_back_the_rest() {
        type M = Msg<TestPayload>;
        let vote = |seq| M::Prepare { view: ViewNr(0), seq: SeqNr(seq), digest: Digest::ZERO };
        let (ms, token) = (SimTime::from_millis, TimerToken);
        let outputs = vec![
            Output::Charge(ms(1)),
            Output::Send { to: 1, msg: vote(1) },
            Output::SetTimer { token: token(3), delay: ms(5) },
            Output::Deliver { seq: SeqNr(1), batch: std::sync::Arc::new(vec![TestPayload(7)]) },
            Output::Send { to: 0, msg: vote(2) },
            Output::CancelTimer { token: token(3) },
            Output::SetTimer { token: token(4), delay: ms(2) },
            Output::ViewChanged { view: ViewNr(1), leader: 1 },
            Output::Send { to: 9, msg: vote(3) }, // names nobody
            Output::Skipped { to: SeqNr(4) },
        ];
        let (log, cpu) = run(2, move |ctx: &mut Context<'_, M>, log| {
            let peers = nodes(0..2);
            emit_all(outputs, &mut |output| {
                if let Some(back) = pbft_io(ctx, &peers, |m| m, output) {
                    log.borrow_mut().push(format!("back {back:?}"));
                }
            });
        });
        let fired = 100 + 4;
        assert_eq!(
            log,
            [
                format!(
                    "back {:?}",
                    Output::Deliver {
                        seq: SeqNr(1),
                        batch: std::sync::Arc::new(vec![TestPayload(7)])
                    }
                ),
                format!(
                    "back {:?}",
                    Output::<TestPayload>::ViewChanged { view: ViewNr(1), leader: 1 }
                ),
                format!("back {:?}", Output::<TestPayload>::Skipped { to: SeqNr(4) }),
                format!("n2 -> n1: {:?}", vote(1)),
                format!("n2 -> n0: {:?}", vote(2)),
                format!("timer {fired}"),
            ]
        );
        assert_eq!(cpu, ["consensus;handle 1.000ms"]);
        assert!(matches!(pbft_timer::<TestPayload>(fired), Some(Input::Timer(TimerToken(4)))));
        assert!(pbft_timer::<TestPayload>(4).is_none(), "a host's own tag");
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Slot(u64);
    impl WireSize for Slot {
        fn wire_size(&self) -> usize {
            8
        }
    }
    impl Digestible for Slot {
        fn digest(&self) -> Digest {
            Digest::builder().u64(self.0).finish()
        }
    }

    #[test]
    fn channel_io_carries_out_the_io_entries_in_order_and_hands_back_the_rest() {
        type M = ChannelLeg<Slot>;
        let vouch = |first| ChannelMsg::Vouch::<Slot> {
            sc: 0,
            first: Position(first),
            count: 1,
            root: Digest::ZERO,
        };
        let ack = ReceiverMsg::Move { sc: 0, p: Position(2) };
        let us = SimTime::from_micros;
        let rest = [
            Action::Ready { sc: 0, p: Position(1) },
            Action::WindowMoved { sc: 0, start: Position(2) },
            Action::SetTimer { token: 0, delay: us(9) },
            Action::Unblocked { sc: 0, p: Position(3) },
        ];
        let [ready, moved, timer, unblocked] = rest.clone();
        let actions = vec![
            Action::Charge(us(2), "range_sign"),
            Action::ToReceiver { to: 1, msg: vouch(1) },
            ready,
            Action::ToPeerSender { to: 0, msg: vouch(2) },
            moved,
            Action::Charge(us(3), "window_mac"),
            Action::ToSender { to: 1, msg: ack.clone() },
            timer,
            unblocked,
            Action::ToReceiver { to: 7, msg: vouch(3) }, // names nobody
        ];
        // Senders are nodes 0 and 1, receivers nodes 2 and 3.
        let (log, cpu) = run(4, move |ctx: &mut Context<'_, M>, log| {
            let (senders, receivers) = (nodes(0..2), nodes(2..4));
            emit_all(actions, &mut |action| {
                if let Some(back) =
                    channel_io(ctx, "bench", &senders, &receivers, |leg| leg, action)
                {
                    log.borrow_mut().push(format!("back {back:?}"));
                }
            });
        });
        let mut expected: Vec<String> = rest.iter().map(|a| format!("back {a:?}")).collect();
        expected.extend([
            format!("n4 -> n3: {:?}", M::ToReceiver(vouch(1))),
            format!("n4 -> n0: {:?}", M::Peer(vouch(2))),
            format!("n4 -> n1: {:?}", M::ToSender(ack)),
        ]);
        assert_eq!(log, expected);
        assert_eq!(cpu, ["bench;range_sign 2us", "bench;window_mac 3us"]);
    }

    /// A host reacts to a handed-back entry at the point the machine
    /// emitted it: a frame the reaction sends departs after the CPU charged
    /// before the entry and before the CPU charged after it, so it reaches
    /// the receiver between the frames emitted on either side of it. Had
    /// the host reacted once the call returned, it would arrive last.
    #[test]
    fn a_reaction_takes_the_place_of_its_entry_between_two_charges() {
        type M = ChannelLeg<Slot>;
        let vouch = |first| ChannelMsg::Vouch::<Slot> {
            sc: 0,
            first: Position(first),
            count: 1,
            root: Digest::ZERO,
        };
        let ms = SimTime::from_millis;
        let actions = vec![
            Action::Charge(ms(1), "first"),
            Action::ToReceiver { to: 0, msg: vouch(1) },
            Action::WindowMoved { sc: 0, start: Position(2) },
            Action::Charge(ms(2), "second"),
            Action::ToReceiver { to: 0, msg: vouch(3) },
        ];
        // The receiver is node 0, the probe node 1.
        let (log, cpu) = run(1, move |ctx: &mut Context<'_, M>, _| {
            let receivers = nodes(0..1);
            emit_all(actions, &mut |action| {
                if let Some(Action::WindowMoved { .. }) =
                    channel_io(ctx, "bench", &[], &receivers, |leg| leg, action)
                {
                    ctx.send(NodeId(0), M::ToReceiver(vouch(2)));
                }
            });
        });
        let arrived = |first| format!("n1 -> n0: {:?}", M::ToReceiver(vouch(first)));
        assert_eq!(log, [arrived(1), arrived(2), arrived(3)]);
        assert_eq!(cpu, ["bench;first 1.000ms", "bench;second 2.000ms"]);
    }

    /// Agreement on nodes 0–1, execution groups 0 (nodes 2–4), 1 (nodes
    /// 5–7) and the inactive 2 (nodes 8–10).
    fn directory() -> Directory {
        let directory = Directory::new();
        directory.set_agreement(nodes(0..2));
        for (g, first, active) in [(0, 2, true), (1, 5, true), (2, 8, false)] {
            let replicas = nodes(first..first + 3);
            directory.register_group(GroupId(g), GroupInfo { replicas, active });
        }
        directory
    }

    fn component(group: GroupId, me: usize) -> CheckpointComponent {
        CheckpointComponent::new(group, me, 1, Keyring::new(3), CostModel::zero())
    }

    fn frames_to(node: u32, log: &[String]) -> usize {
        log.iter().filter(|line| line.contains(&format!("-> n{node}:"))).count()
    }

    #[test]
    fn checkpoint_io_routes_by_group_and_hands_back_stable() {
        fn fetch() -> CheckpointMsg {
            CheckpointMsg::FetchRequest { seq: SeqNr(5) }
        }
        // Replica 1 of execution group 0 is node 3; the probe is node 11.
        let script = |group, target| {
            move |ctx: &mut Context<'_, SpiderMsg>, log: &Transcript| {
                let actions = vec![
                    CpAction::Charge(SimTime::from_micros(1), "cp_mac"),
                    CpAction::ToGroup(fetch()),
                    CpAction::Stable { seq: SeqNr(8), apply: Apply::Fetch },
                    CpAction::ToPeer { group: target, idx: 1, msg: fetch() },
                    CpAction::ToPeer { group: GroupId(999), idx: 0, msg: fetch() },
                ];
                let mut cp = component(group, 1);
                let stable = checkpoint_io(ctx, &directory(), &mut cp, |_, _, out| {
                    emit_all(actions, out);
                });
                log.borrow_mut().push(format!("back {stable:?}"));
            }
        };
        let (log, cpu) = run(11, script(GroupId(0), GroupId(1)));
        assert_eq!(log[0], "back Some((SeqNr(8), Fetch))");
        // The group's other members, then every replica of the other
        // active group (§3.5), then the named peer: replica 1 of group 1.
        let to: Vec<&str> = log[1..].iter().map(|l| &l[..l.find(':').expect("a frame")]).collect();
        assert_eq!(
            to,
            ["n11 -> n2", "n11 -> n4", "n11 -> n5", "n11 -> n6", "n11 -> n7", "n11 -> n6"]
        );
        let frame = SpiderMsg::Checkpoint { group: GroupId(0), msg: fetch() };
        assert!(log[1..].iter().all(|l| l.ends_with(&format!("{frame:?}"))), "under the own group");
        assert_eq!(cpu, ["checkpoint;cp_mac 1us"]);

        // The agreement group is one more group: its fetch stays inside.
        let (log, _) = run(11, script(AGREEMENT_GROUP, AGREEMENT_GROUP));
        assert_eq!((log.len(), frames_to(0, &log)), (3, 1), "its other member, then the peer");
        assert_eq!(frames_to(1, &log), 1);
    }

    #[test]
    fn checkpoint_timers_are_armed_under_tags_3_and_4_and_map_back() {
        let ms = SimTime::from_millis;
        let (log, _) = run(0, move |ctx: &mut Context<'_, SpiderMsg>, _| {
            let actions = vec![
                CpAction::SetTimer { token: CpTimer::FetchRetry, delay: ms(5) },
                CpAction::SetTimer { token: CpTimer::Gossip, delay: ms(2) },
            ];
            let mut cp = component(GroupId(0), 1);
            let stable = checkpoint_io(ctx, &directory(), &mut cp, |_, _, out| {
                emit_all(actions, out);
            });
            assert!(stable.is_none());
        });
        assert_eq!(log, ["timer 4", "timer 3"]);
        assert_eq!(checkpoint_timer(3), Some(CpTimer::FetchRetry));
        assert_eq!(checkpoint_timer(4), Some(CpTimer::Gossip));
        assert_eq!((checkpoint_timer(2), checkpoint_timer(5)), (None, None), "not a checkpoint's");
    }

    #[test]
    fn checkpoint_frame_admits_members_only_and_never_mixes_the_two_kinds() {
        let directory = directory();
        let mut cp = component(GroupId(0), 0);
        let fetch = || CheckpointMsg::FetchRequest { seq: SeqNr(0) };
        // A peer's genuine announcement and fetch response for sequence 8.
        let snapshot = crate::checkpoint::Snapshot::single(bytes::Bytes::from_static(b"state"));
        let mut peers = [component(GroupId(0), 1), component(GroupId(0), 2)];
        let mut announced = Vec::new();
        for peer in &mut peers {
            peer.generate(SeqNr(8), snapshot.clone(), &mut announced);
        }
        let announces: Vec<CheckpointMsg> = announced
            .into_iter()
            .filter_map(|a| match a {
                CpAction::ToGroup(msg) => Some(msg),
                _ => None,
            })
            .collect();
        let mut frame = |from: u32, group, msg| {
            let mut out = Vec::new();
            checkpoint_frame(&mut cp, &directory, NodeId(from), group, msg, &mut out);
            out
        };

        assert!(frame(5, GroupId(0), fetch()).is_empty(), "not a member of the group it names");
        assert!(frame(2, GroupId(999), fetch()).is_empty(), "a group nobody registered");
        assert!(frame(0, AGREEMENT_GROUP, fetch()).is_empty(), "the two kinds never mix");
        assert!(
            frame(5, GroupId(1), announces[0].clone()).is_empty(),
            "announcements count from the own group only"
        );
        // Own-group announcements from members 1 and 2 make sequence 8
        // stable (f + 1 = 2 matching votes).
        assert!(!frame(3, GroupId(0), announces[0].clone()).is_empty());
        let out = frame(4, GroupId(0), announces[1].clone());
        let fetch_it =
            |a: &CpAction| matches!(a, CpAction::Stable { seq: SeqNr(8), apply: Apply::Fetch });
        assert!(out.iter().any(fetch_it), "member 0 did not vote at 8");

        // The state arrives in a fetch response: dropped from a node that
        // is not a member of the group it claims, installed from one that is.
        let mut served = Vec::new();
        let CheckpointMsg::Announce { seq, state_hash, sig } = announces[1].clone() else {
            panic!("an announcement");
        };
        peers[0].on_announce(2, seq, state_hash, sig, &mut served);
        peers[0].on_fetch_request(GroupId(0), 0, SeqNr(8), &mut served);
        let Some(CpAction::ToPeer { msg: msg @ CheckpointMsg::FetchResponse { .. }, .. }) =
            served.pop()
        else {
            panic!("the peer holds the stable state");
        };
        assert!(frame(9, GroupId(0), msg.clone()).is_empty(), "not a member");
        let out = frame(3, GroupId(0), msg);
        let install = |a: &CpAction| {
            matches!(a, CpAction::Stable { seq: SeqNr(8), apply: Apply::Install(_) })
        };
        assert!(out.iter().any(install));
    }
}
