//! The wire protocol over a real TCP socket: a simulated switch hosted
//! by the `tango-net` reactor behind a loopback listener, probed by a
//! controller on the other end of the connection — demonstrating that
//! `ofwire`'s framing and codec are genuine transport-grade plumbing,
//! not simulation-only types.
//!
//! The server side is three lines: spawn an
//! [`AgentServer`](tango_net::server::AgentServer) in realtime mode
//! with the switch in its roster. The reactor owns the non-blocking
//! read loop, feeds raw socket bytes straight into the agent's
//! allocation-free `feed_into` path, and batches replies through a
//! reused write buffer. The controller stays a deliberately simple
//! blocking client, because that is what the wire looks like from the
//! other side.
//!
//! ```sh
//! cargo run --release --example wire_over_tcp
//! ```

use ofwire::prelude::*;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use switchsim::profiles::SwitchProfile;
use tango_net::server::{AgentServer, ServerMode};
use tango_net::vt::VtMsg;

const DPID: Dpid = Dpid(0xbeef);

/// A tiny blocking controller: send one message, collect replies until
/// the expected count arrives.
struct TcpController {
    stream: TcpStream,
    framer: Framer,
    /// Replies read off the socket but not yet returned by `recv`.
    inbox: VecDeque<(Header, Message)>,
    next_xid: Xid,
}

impl TcpController {
    fn send(&mut self, msg: Message) -> Xid {
        let xid = self.next_xid;
        self.next_xid = xid.next();
        self.stream.write_all(&msg.to_bytes(xid)).expect("send");
        xid
    }

    fn recv(&mut self) -> (Header, Message) {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(pair) = self.inbox.pop_front() {
                return pair;
            }
            let n = self.stream.read(&mut buf).expect("recv");
            assert!(n > 0, "switch closed early");
            let mut input = &buf[..n];
            while let Some(pair) = self.framer.next_message_from(&mut input).expect("parse") {
                self.inbox.push_back(pair);
            }
        }
    }
}

fn main() {
    let server = AgentServer::spawn(
        7,
        vec![(DPID, SwitchProfile::vendor3())],
        ServerMode::Realtime,
    )
    .expect("spawn agent server");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    println!("[ctrl]   connected to simulated switch at {addr}");
    let mut ctrl = TcpController {
        stream,
        framer: Framer::new(),
        inbox: VecDeque::new(),
        next_xid: Xid(1),
    };

    // Bind the connection to the roster switch, then do the OpenFlow
    // handshake over it.
    ctrl.send(VtMsg::Hello { dpid: DPID.0 }.to_message());
    ctrl.send(Message::Hello);
    let (_, hello) = ctrl.recv();
    assert_eq!(hello, Message::Hello);
    ctrl.send(Message::FeaturesRequest);
    let (_, features) = ctrl.recv();
    if let Message::FeaturesReply(fr) = &features {
        println!(
            "[ctrl]   switch {} claims {} table(s), {} port(s)",
            fr.datapath_id,
            fr.n_tables,
            fr.ports.len()
        );
    }

    // Install rules until the TCAM rejects — black-box capacity
    // discovery over an actual socket.
    let mut installed = 0u32;
    loop {
        let fm = FlowMod::add(FlowMatch::l3_for_id(installed), 40);
        ctrl.send(Message::FlowMod(fm));
        let barrier_xid = ctrl.send(Message::BarrierRequest);
        let (hdr, reply) = ctrl.recv();
        match reply {
            Message::BarrierReply => {
                assert_eq!(hdr.xid, barrier_xid);
                installed += 1;
            }
            Message::Error(e) => {
                assert!(e.is_table_full());
                // Drain the barrier reply that follows the error.
                let (_, b) = ctrl.recv();
                assert_eq!(b, Message::BarrierReply);
                break;
            }
            other => panic!("unexpected reply {other:?}"),
        }
        if installed.is_multiple_of(100) {
            println!("[ctrl]   {installed} rules installed…");
        }
    }
    println!(
        "[ctrl]   capacity discovered over TCP: {installed} rules \
         (Switch #3's L3 capacity is 767)"
    );
    assert_eq!(installed, 767);

    // Flow stats round trip.
    ctrl.send(Message::StatsRequest(StatsRequestBody::Table));
    let (_, stats) = ctrl.recv();
    if let Message::StatsReply(StatsBody::Table(tables)) = stats {
        for t in tables {
            println!(
                "[ctrl]   table '{}': {} active entries",
                t.name, t.active_count
            );
        }
    }

    drop(ctrl);
    let stats = server.shutdown().expect("server exits cleanly");
    println!(
        "[switch] session over; {} connection(s), {} messages dispatched",
        stats.accepted, stats.ops
    );
}
