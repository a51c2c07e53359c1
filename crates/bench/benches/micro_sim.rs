//! Host cost of one handled event at a node that keeps `k` events waiting.
//!
//! `sim/busy_node_k{k}` is one node whose `k` timers take turns: each
//! handler charges 1 µs and sets its timer again 1 ns on, so the timer
//! meets the node busy and waits behind the `k - 1` others, the way a
//! saturated replica's messages wait for its CPU. A call advances the
//! simulation by 1 µs, one handler run, so the row is host ns per handled
//! event with every turn-away of the busy-server model it brings. Turning
//! a node's whole line away in one step keeps the row flat in `k`;
//! re-keying each waiting event in the heap grows it with `k`.

use spider_bench::time_per_call;
use spider_sim::{Actor, Context, NodeId, SimTime, Simulation, Timer, Topology, WireSize};

#[derive(Clone)]
struct Nothing;

impl WireSize for Nothing {
    fn wire_size(&self) -> usize {
        0
    }
}

/// Sets `k` timers at start; each fire charges 1 µs and sets it again.
struct Busy {
    k: u64,
}

impl Actor<Nothing> for Busy {
    fn on_start(&mut self, ctx: &mut Context<'_, Nothing>) {
        (0..self.k).for_each(|tag| ctx.set_timer(SimTime::ZERO, tag));
    }

    fn on_message(&mut self, _: &mut Context<'_, Nothing>, _: NodeId, _: Nothing) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Nothing>, timer: Timer) {
        ctx.charge(SimTime::from_micros(1));
        ctx.set_timer(SimTime::from_nanos(1), timer.tag);
    }
}

fn main() {
    for k in [1u64, 8, 64] {
        time_per_call(
            &format!("sim/busy_node_k{k}"),
            || {
                let mut sim = Simulation::new(Topology::builder().region("a", 1).build(), 1);
                sim.add_node(sim.topology().zone("a", 0), Busy { k });
                // Every timer has run once: the node's queue is in its
                // steady state.
                sim.run_until(SimTime::from_micros(2 * k));
                sim
            },
            |sim| {
                let next = sim.now() + SimTime::from_micros(1);
                sim.run_until(next)
            },
        );
    }
}
