//! Single-layer replays: the same inputs the workloads use, pushed
//! through one layer at a time with nothing else in the way.
//!
//! Each replay returns nanoseconds per unit of work as the median of
//! [`BATCHES`] batches, timed from outside through the layer's public
//! entry point. Set beside a workload's end-to-end cost per op, they are
//! the layer ladder: what part of a flow-mod's trip is codec, what part
//! agent, what part table — and what is left for sockets and the
//! reactor.

use crate::gen::{flow_mod_cycle, Stream};
use crate::report::median;
use ofwire::codec::Framer;
use ofwire::flow_mod::FlowMod;
use ofwire::message::Message;
use ofwire::types::{Dpid, Xid};
use simnet::event::EventQueue;
use simnet::rng::DetRng;
use simnet::time::SimTime;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use switchsim::agent::{Agent, AgentOutput};
use switchsim::control::{ControlOp, ControlPath};
use switchsim::entry::{EntryId, FlowEntry};
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use switchsim::switch::Switch;
use switchsim::table::FlowTable;
use tango_sched::dag::RequestDag;

const BATCHES: usize = 7;
/// Rotations of the 2048-frame cycle per batch (~100 k frames).
const CYCLES_PER_BATCH: usize = 48;
/// `Framer` input arrives in reads of this size.
const CHUNK: usize = 64 * 1024;

fn median_ns_per_unit(units_per_batch: usize, mut batch: impl FnMut()) -> f64 {
    let per_unit: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / units_per_batch as f64
        })
        .collect();
    median(&per_unit)
}

fn decode_all(stream: &Stream) -> Vec<FlowMod> {
    let mut framer = Framer::new();
    let mut input = &stream.bytes[..];
    let mut out = Vec::with_capacity(stream.frames());
    while let Some((_, msg)) = framer
        .next_message_from(&mut input)
        .expect("the cycle is well-formed")
    {
        if let Message::FlowMod(fm) = msg {
            out.push(fm);
        }
    }
    out
}

/// The wire stream as one connection sends it: `cycles` rotations with a
/// `BarrierRequest` after every `fence_every` flow-mods.
fn fenced_stream(cycle: &Stream, cycles: usize, fence_every: usize) -> (Vec<u8>, usize) {
    let fence = Message::BarrierRequest.to_bytes(Xid(1));
    let mut bytes = Vec::new();
    let mut frames = 0;
    for i in 0..cycles * cycle.frames() {
        bytes.extend_from_slice(cycle.frame(i % cycle.frames()));
        frames += 1;
        if (i + 1) % fence_every == 0 {
            bytes.extend_from_slice(&fence);
            frames += 1;
        }
    }
    (bytes, frames)
}

/// The codec and agent rungs of the ladder for the wire stream.
#[derive(Debug, Clone, Copy)]
pub struct WireLadder {
    pub encode_ns_per_frame: f64,
    pub bytes_per_flow_mod: f64,
    pub decode_ns_per_frame: f64,
    pub agent_ns_per_frame: f64,
    pub table_ns_per_op_1k: f64,
}

/// Replays the wire workloads' stream through `ofwire`, `Agent` and
/// `FlowTable` in turn.
#[must_use]
pub fn wire_ladder(seed: u64, fence_every: usize) -> WireLadder {
    let cycle = flow_mod_cycle(seed);
    let flow_mods = decode_all(&cycle);
    let messages: Vec<Message> = flow_mods.iter().cloned().map(Message::FlowMod).collect();

    let mut buf = Vec::with_capacity(cycle.bytes.len());
    let encode_ns_per_frame = median_ns_per_unit(CYCLES_PER_BATCH * messages.len(), || {
        for _ in 0..CYCLES_PER_BATCH {
            buf.clear();
            for m in &messages {
                m.encode_frame_into(Xid(7), &mut buf);
            }
            black_box(&buf);
        }
    });

    let (bytes, frames) = fenced_stream(&cycle, CYCLES_PER_BATCH, fence_every);
    let decode_ns_per_frame = median_ns_per_unit(frames, || {
        let mut framer = Framer::new();
        for chunk in bytes.chunks(CHUNK) {
            let mut input = chunk;
            while let Some(m) = framer.next_message_from(&mut input).expect("valid stream") {
                black_box(m);
            }
        }
    });

    // The agent as the realtime server runs it: feed a read's worth of
    // bytes, encode every reply into a reused buffer.
    let mut agent = Agent::new(Switch::new(SwitchProfile::ovs(), Dpid(1), seed));
    let mut outs: Vec<AgentOutput> = Vec::new();
    let mut replies = Vec::new();
    let mut now = 0u64;
    let agent_ns_per_frame = median_ns_per_unit(frames, || {
        for chunk in bytes.chunks(CHUNK) {
            now += 1000;
            outs.clear();
            agent
                .feed_into(chunk, SimTime(now), &mut outs)
                .expect("valid stream");
            replies.clear();
            for o in outs.drain(..) {
                if let Some(reply) = o.reply {
                    reply.encode_frame_into(o.xid, &mut replies);
                }
            }
            black_box(&replies);
        }
    });

    WireLadder {
        encode_ns_per_frame,
        bytes_per_flow_mod: cycle.bytes.len() as f64 / cycle.frames() as f64,
        decode_ns_per_frame,
        agent_ns_per_frame,
        table_ns_per_op_1k: table_ns_per_op(&flow_mods, 0),
    }
}

/// Applies the decoded flow-mods to a bare [`FlowTable`] that already
/// holds `resident` other entries: adds insert, strict deletes look the
/// rule up and remove it. The rotation itself adds up to 1024 entries,
/// so `resident` 0 is the table `wire_bulk` keeps (≤ 1 k) and 15 k is
/// the size `sched_dag`'s switches reach (≤ 16 k).
#[must_use]
pub fn table_ns_per_op(flow_mods: &[FlowMod], resident: usize) -> f64 {
    let mut table = FlowTable::new();
    let mut next_id = 0u64;
    let mut install = |table: &mut FlowTable, fm: &FlowMod| {
        next_id += 1;
        table.insert(FlowEntry::new(
            EntryId(next_id),
            fm.flow_match,
            fm.priority,
            fm.actions.clone(),
            SimTime::ZERO,
        ));
    };
    for i in 0..resident {
        let fm = FlowMod::add(
            ofwire::flow_match::FlowMatch::l3_for_id(0x10_0000 + i as u32),
            10,
        );
        install(&mut table, &fm);
    }
    let ns = median_ns_per_unit(CYCLES_PER_BATCH * flow_mods.len(), || {
        for _ in 0..CYCLES_PER_BATCH {
            for fm in flow_mods {
                if fm.command.is_delete() {
                    if let Some(i) = table.find_strict(&fm.flow_match, fm.priority) {
                        black_box(table.remove_at(i));
                    }
                } else {
                    install(&mut table, fm);
                }
            }
        }
    });
    assert_eq!(
        table.len(),
        resident,
        "the rotation leaves the table as it found it"
    );
    ns
}

/// [`table_ns_per_op`] for the wire cycle at `resident` entries.
#[must_use]
pub fn table_ns_per_op_for_seed(seed: u64, resident: usize) -> f64 {
    table_ns_per_op(&decode_all(&flow_mod_cycle(seed)), resident)
}

/// Hold-model cost of the calendar queue at a steady `pending` events:
/// pop the earliest, push one a random increment later. One pop + one
/// push is one event.
#[must_use]
pub fn queue_ns_per_event(pending: usize, seed: u64) -> f64 {
    const EVENTS_PER_BATCH: usize = 200_000;
    let mut rng = DetRng::new(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    // Control-plane spacing: increments spread over ~0–200 µs.
    let mut step = move || rng.range_u64(1, 200_000);
    let mut now = 0u64;
    for i in 0..pending {
        q.push(SimTime(step()), i as u32);
    }
    median_ns_per_unit(EVENTS_PER_BATCH, || {
        for _ in 0..EVENTS_PER_BATCH {
            let (at, e) = q.pop().expect("hold model never drains");
            now = at.0;
            q.push(SimTime(now + step()), black_box(e));
        }
    })
}

/// Flat FIFO replay of a DAG's operations on `tb`: each switch works
/// through its requests in node order, one in flight at a time (the
/// depth the executor keeps), with no scheduler, no dependency tracking
/// and no release rule. What is left is the Testbed's own cost for this
/// op mix (encode, event loop, agent, table). Returns ns per op.
pub fn testbed_flat_replay(tb: &mut Testbed, dag: &RequestDag) -> f64 {
    let mut queues: Vec<(Dpid, VecDeque<ControlOp>)> = Vec::new();
    for id in dag.node_ids() {
        let req = dag.node(id);
        let op = ControlOp::FlowMod(req.to_flow_mod());
        match queues.iter_mut().find(|(d, _)| *d == req.location) {
            Some((_, q)) => q.push_back(op),
            None => queues.push((req.location, VecDeque::from([op]))),
        }
    }
    let t0 = Instant::now();
    for (dpid, q) in &mut queues {
        if let Some(op) = q.pop_front() {
            tb.submit(*dpid, op, tb.now());
        }
    }
    let mut done = 0usize;
    while let Some(c) = tb.next_completion() {
        done += 1;
        let next = queues
            .iter_mut()
            .find(|(d, _)| *d == c.dpid)
            .and_then(|(_, q)| q.pop_front());
        if let Some(op) = next {
            tb.submit(c.dpid, op, tb.now());
        }
    }
    assert_eq!(done, dag.len(), "every submitted op completes");
    t0.elapsed().as_nanos() as f64 / dag.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenced_stream_counts_frames_and_parses() {
        let cycle = flow_mod_cycle(3);
        let (bytes, frames) = fenced_stream(&cycle, 1, 32);
        assert_eq!(frames, 2048 + 64);
        let mut framer = Framer::new();
        let mut input = &bytes[..];
        let mut seen = 0;
        while framer.next_message_from(&mut input).unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, frames);
        assert_eq!(decode_all(&cycle).len(), 2048);
    }

    #[test]
    fn replays_return_positive_costs_and_restore_the_table() {
        let fms = decode_all(&flow_mod_cycle(3));
        assert!(table_ns_per_op(&fms[..], 64) > 0.0);
        assert!(queue_ns_per_event(8, 1) > 0.0);
    }
}
