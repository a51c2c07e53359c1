//! What the BFT and HFT replicas share: the client-facing front (admit a
//! request, execute an ordered one at most once, answer from the reply
//! cache) and the hosting of a PBFT instance.

use crate::messages::{BaseMsg, Request};
use bytes::Bytes;
use spider::app::Application;
use spider::directory::Directory;
use spider::host;
use spider::messages::Reply;
use spider::SpiderConfig;
use spider_consensus::{Input, Msg, Output, Pbft, PbftConfig};
use spider_sim::Context;
use spider_types::{ClientId, GroupId, NodeId, OpKind, SeqNr, ViewNr, WireSize};
use std::collections::BTreeMap;

/// Unilateral consensus garbage collection interval, in delivered
/// batches (the baselines skip the full checkpoint protocol; its CPU cost
/// is negligible next to the WAN round trips being measured).
const GC_INTERVAL: u64 = 64;

/// A replica's application and reply cache, and the rules by which it
/// answers clients.
pub(crate) struct Front<A> {
    pub(crate) cfg: SpiderConfig,
    pub(crate) directory: Directory,
    pub(crate) app: A,
    /// Per client: the last counter executed and its result.
    executed: BTreeMap<ClientId, (u64, Bytes)>,
}

impl<A: Application> Front<A> {
    pub(crate) fn new(cfg: SpiderConfig, directory: Directory, app: A) -> Self {
        Front { cfg, directory, app, executed: BTreeMap::new() }
    }

    /// Sends `reply` to `client`'s node, charging its MAC.
    fn reply(&self, ctx: &mut Context<'_, BaseMsg>, client: ClientId, reply: Reply) {
        if let Some(node) = self.directory.client_node(client) {
            ctx.charge(self.cfg.cost.hmac(reply.result.len()));
            ctx.send(node, BaseMsg::Reply(reply));
        }
    }

    /// Admits a client request: charges its MAC, answers a read of a kind
    /// in `local_reads` from committed state, and a retry of the last
    /// executed request from the reply cache. What is left is charged its
    /// signature check and returned for ordering.
    pub(crate) fn admit(
        &mut self,
        ctx: &mut Context<'_, BaseMsg>,
        req: Request,
        local_reads: &[OpKind],
    ) -> Option<Request> {
        ctx.charge(self.cfg.cost.hmac(req.wire_size()));
        let kind = req.operation.kind;
        if local_reads.contains(&kind) {
            ctx.charge(self.cfg.cost.app_execute());
            let result = self.app.execute_read(&req.operation.op);
            let weak = kind == OpKind::WeakRead;
            self.reply(ctx, req.client, Reply { tc: req.tc, result, weak, resubmit: false });
            return None;
        }
        if let Some((tc, result)) = self.executed.get(&req.client).filter(|(tc, _)| *tc >= req.tc) {
            // A retry of the last executed request gets its reply again.
            if *tc == req.tc {
                let reply = Reply { tc: *tc, result: result.clone(), weak: false, resubmit: false };
                self.reply(ctx, req.client, reply);
            }
            return None;
        }
        ctx.charge(self.cfg.cost.rsa_verify());
        Some(req)
    }

    /// Executes an ordered request unless its client's counter already
    /// ran, caches the result, and replies if `reply`.
    pub(crate) fn execute(&mut self, ctx: &mut Context<'_, BaseMsg>, req: &Request, reply: bool) {
        if self.executed.get(&req.client).is_some_and(|(tc, _)| *tc >= req.tc) {
            return;
        }
        ctx.charge(self.cfg.cost.app_execute());
        let result = self.app.execute(&req.operation.op);
        self.executed.insert(req.client, (req.tc, result.clone()));
        if reply {
            self.reply(ctx, req.client, Reply { tc: req.tc, result, weak: false, resubmit: false });
        }
    }
}

/// A PBFT instance over one group of the directory, hosted with the
/// unilateral garbage collection both baselines use.
pub(crate) struct Ordering {
    pbft: Pbft<Request>,
    directory: Directory,
    group: GroupId,
    delivered: u64,
}

impl Ordering {
    /// Replica `me` of `group`.
    pub(crate) fn new(cfg: PbftConfig, me: usize, directory: Directory, group: GroupId) -> Self {
        Ordering { pbft: Pbft::new(cfg, me), directory, group, delivered: 0 }
    }

    pub(crate) fn view(&self) -> ViewNr {
        self.pbft.view()
    }

    /// The input a PBFT frame makes, if its sender is a peer.
    pub(crate) fn frame(&self, from: NodeId, msg: Msg<Request>) -> Option<Input<Request>> {
        let from = self.directory.replica_index(self.group, from)?;
        Some(Input::Message { from, msg })
    }

    /// Runs one input through PBFT, handing each request it delivers to
    /// `deliver` as it is delivered.
    pub(crate) fn step(
        &mut self,
        ctx: &mut Context<'_, BaseMsg>,
        input: Input<Request>,
        mut deliver: impl FnMut(&mut Context<'_, BaseMsg>, &Request),
    ) {
        let Ordering { pbft, directory, group, delivered } = self;
        let members = directory.group_replicas(*group);
        let mut gc = None;
        pbft.handle(ctx.now(), input, &mut |output| {
            let Some(Output::Deliver { batch, .. }) =
                host::pbft_io(ctx, &members, BaseMsg::Pbft, output)
            else {
                return;
            };
            for req in batch.iter() {
                deliver(ctx, req);
            }
            *delivered += 1;
            if delivered.is_multiple_of(GC_INTERVAL) && *delivered > GC_INTERVAL {
                gc = Some(SeqNr(*delivered - GC_INTERVAL));
            }
        });
        // `gc` only raises a horizon, so the last one requested covers
        // every earlier one.
        if let Some(before) = gc {
            pbft.gc(before);
        }
    }
}
