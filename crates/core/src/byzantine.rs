//! Byzantine behaviours (§3.7), written against the wire.
//!
//! Each behaviour is an adversary for [`spider_sim::Simulation::set_adversary`]:
//! it sees every message a node sends, with its destination, and rewrites
//! or drops it. The node's own state machine stays correct, so the
//! replicas and clients carry no fault code. Install one through
//! [`crate::Deployment::make_byzantine`], which keeps every group within
//! its `f`.

use crate::keys::{agreement_key, KEY_SEED};
use crate::messages::{ChannelLeg, Execute, ExecutePayload, OrderedRequest, SpiderMsg};
use bytes::Bytes;
use spider_crypto::{merkle_root, Digest, Digestible, Keyring};
use spider_irmc::{range_digest, ChannelMsg, Run};
use spider_types::NodeId;

/// An execution replica whose every reply carries a wrong result: a
/// client must not accept fewer than `fe + 1` matching replies.
pub fn wrong_replies() -> impl FnMut(NodeId, SpiderMsg) -> Option<SpiderMsg> {
    |_, mut msg| {
        if let SpiderMsg::Reply(reply) = &mut msg {
            reply.result = Bytes::from_static(b"corrupted");
        }
        Some(msg)
    }
}

/// An execution replica that never forwards a client request: nothing it
/// sends on its group's request channel leaves it, so `fe + 1` correct
/// forwarders must suffice.
pub fn silent_forwarder() -> impl FnMut(NodeId, SpiderMsg) -> Option<SpiderMsg> {
    |_, msg| (!matches!(msg, SpiderMsg::RequestChannel { .. })).then_some(msg)
}

/// A client that sends every replica a different operation under the same
/// counter: the request channel never delivers it, and the damage stays
/// within the client's own subchannel.
pub fn conflicting_requests() -> impl FnMut(NodeId, SpiderMsg) -> Option<SpiderMsg> {
    |to, mut msg| {
        if let SpiderMsg::Request(req) = &mut msg {
            let mut forged = req.clone().into_inner();
            let mut op = forged.operation.op.to_vec();
            op.extend_from_slice(&to.0.to_be_bytes());
            forged.operation.op = op.into();
            *req = forged.into();
        }
        Some(msg)
    }
}

/// Agreement replica `replica` turned traitor on every commit channel: the
/// `Execute`s it casts or ships are corrupted, each cast is signed anew
/// with its own key (a Byzantine replica holds it), and its vouches name
/// a wrong root. Every signature it sends verifies; the `fa + 1` matching
/// content rule is what keeps its order out.
pub fn commit_traitor(replica: usize) -> impl FnMut(NodeId, SpiderMsg) -> Option<SpiderMsg> {
    let (keyring, key) = (Keyring::new(KEY_SEED), agreement_key(replica));
    move |_, mut msg| {
        if let SpiderMsg::CommitChannel { leg: ChannelLeg::ToReceiver(frame), .. } = &mut msg {
            match frame {
                ChannelMsg::Cast { sc, first, msgs, sig } => {
                    *msgs = corrupt(msgs);
                    let root = merkle_root(&msgs.iter().map(|e| e.digest()).collect::<Vec<_>>());
                    *sig = keyring.sign(key, &range_digest(*sc, *first, msgs.len() as u32, &root));
                }
                ChannelMsg::Content { msgs, .. } => *msgs = corrupt(msgs),
                ChannelMsg::Vouch { root, .. } => *root = Digest::builder().digest(root).finish(),
                ChannelMsg::Share { .. }
                | ChannelMsg::Certificate { .. }
                | ChannelMsg::Progress { .. }
                | ChannelMsg::Move { .. } => {}
            }
        }
        Some(msg)
    }
}

/// `run` with the operation of every full request an `add:666` instead: a
/// new run of new `Execute`s, hashed anew at every level that held a
/// digest.
fn corrupt(run: &Run<Execute>) -> Run<Execute> {
    let execs = run.iter().map(|exec| {
        let Execute { seq, payload } = exec.clone();
        let payload = match payload {
            ExecutePayload::Full(ordered) => {
                let OrderedRequest { request, origin } = ordered.into_inner();
                let mut request = request.into_inner();
                request.operation.op = Bytes::from_static(b"add:666");
                ExecutePayload::Full(OrderedRequest { request: request.into(), origin }.into())
            }
            placeholder @ ExecutePayload::Placeholder { .. } => placeholder,
        };
        Execute { seq, payload }
    });
    execs.collect()
}
