//! Recorded bytes of one encoded frame per [`Message`] variant.
//!
//! The round-trip proptests prove decode∘encode is the identity, which
//! an encoder and decoder that drift together would still pass. These
//! pins hold the wire form itself: every frame below is compared, byte
//! for byte, with the hex it encoded to when it was recorded, and must
//! decode back to the message that produced it.
//!
//! A run of eight or more zero bytes prints as `[00;N]`, which keeps the
//! fixed-width string fields of the stats replies readable.

use ofwire::action::Action;
use ofwire::error_msg::ErrorMsg;
use ofwire::features::{FeaturesReply, PhyPort};
use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::flow_removed::{FlowRemoved, FlowRemovedReason};
use ofwire::message::Message;
use ofwire::packet::{PacketIn, PacketInReason, PacketOut};
use ofwire::stats::{
    AggregateStats, DescStats, FlowStatsEntry, StatsBody, StatsRequestBody, TableStatsEntry,
};
use ofwire::types::{BufferId, Dpid, PortNo, Xid};

/// Lower-case hex, with zero runs of eight or more bytes collapsed.
fn hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        let run = bytes[i..].iter().take_while(|&&b| b == 0).count();
        if run >= 8 {
            out.push_str(&format!("[00;{run}]"));
            i += run;
        } else {
            out.push_str(&format!("{:02x}", bytes[i]));
            i += 1;
        }
    }
    out
}

/// One message of each variant (and each stats body), with its xid.
fn cases() -> Vec<(&'static str, Xid, Message)> {
    let flow = FlowStatsEntry {
        table_id: 1,
        flow_match: FlowMatch::l3_for_id(3),
        duration_sec: 4,
        duration_nsec: 5,
        priority: 6,
        idle_timeout: 7,
        hard_timeout: 8,
        cookie: 9,
        packet_count: 10,
        byte_count: 11,
        actions: Action::Output {
            port: PortNo(2),
            max_len: 0,
        }
        .into(),
    };
    vec![
        ("hello", Xid(1), Message::Hello),
        (
            "error",
            Xid(2),
            Message::Error(ErrorMsg::table_full(vec![0xa5; 12])),
        ),
        ("echo_request", Xid(3), Message::EchoRequest(vec![1, 2, 3])),
        ("echo_reply", Xid(4), Message::EchoReply(vec![4, 5])),
        (
            "vendor",
            Xid(5),
            Message::Vendor {
                vendor: 0x00ca_fe42,
                data: vec![0xde, 0xad, 0xbe, 0xef],
            },
        ),
        ("features_request", Xid(6), Message::FeaturesRequest),
        (
            "features_reply",
            Xid(7),
            Message::FeaturesReply(FeaturesReply {
                datapath_id: Dpid(0x0102_0304_0506_0708),
                n_buffers: 256,
                n_tables: 2,
                capabilities: 0x87,
                actions: 0xfff,
                ports: vec![PhyPort::gigabit(1)],
            }),
        ),
        (
            "packet_in",
            Xid(8),
            Message::PacketIn(PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                total_len: 6,
                in_port: PortNo(3),
                reason: PacketInReason::NoMatch,
                data: vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66],
            }),
        ),
        (
            "packet_out",
            Xid(9),
            Message::PacketOut(PacketOut::send(vec![0x77; 6], PortNo(4))),
        ),
        (
            "flow_mod",
            Xid(10),
            Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(5), 100).with_action(
                Action::Output {
                    port: PortNo(2),
                    max_len: 0,
                },
            )),
        ),
        (
            "flow_removed",
            Xid(11),
            Message::FlowRemoved(FlowRemoved {
                flow_match: FlowMatch::l3_for_id(6),
                cookie: 0x0a0b,
                priority: 9,
                reason: FlowRemovedReason::IdleTimeout,
                duration_sec: 12,
                duration_nsec: 13,
                idle_timeout: 14,
                packet_count: 15,
                byte_count: 16,
            }),
        ),
        (
            "stats_request_desc",
            Xid(12),
            Message::StatsRequest(StatsRequestBody::Desc),
        ),
        (
            "stats_request_flow",
            Xid(13),
            Message::StatsRequest(StatsRequestBody::all_flows()),
        ),
        (
            "stats_request_aggregate",
            Xid(14),
            Message::StatsRequest(StatsRequestBody::Aggregate {
                filter: FlowMatch::l3_for_id(7),
                table_id: 0,
                out_port: PortNo(5),
            }),
        ),
        (
            "stats_request_table",
            Xid(15),
            Message::StatsRequest(StatsRequestBody::Table),
        ),
        (
            "stats_reply_desc",
            Xid(16),
            Message::StatsReply(StatsBody::Desc(DescStats {
                mfr_desc: "mfr".into(),
                hw_desc: "hw".into(),
                sw_desc: "sw".into(),
                serial_num: "42".into(),
                dp_desc: "dp".into(),
            })),
        ),
        (
            "stats_reply_flow",
            Xid(17),
            Message::StatsReply(StatsBody::Flow(vec![flow])),
        ),
        (
            "stats_reply_aggregate",
            Xid(18),
            Message::StatsReply(StatsBody::Aggregate(AggregateStats {
                packet_count: 20,
                byte_count: 21,
                flow_count: 22,
            })),
        ),
        (
            "stats_reply_table",
            Xid(19),
            Message::StatsReply(StatsBody::Table(vec![TableStatsEntry {
                table_id: 0,
                name: "tcam".into(),
                wildcards: 0x3f_ffff,
                max_entries: 2048,
                active_count: 23,
                lookup_count: 24,
                matched_count: 25,
            }])),
        ),
        ("barrier_request", Xid(20), Message::BarrierRequest),
        ("barrier_reply", Xid(21), Message::BarrierReply),
    ]
}

/// The recorded frames, in [`cases`] order.
const GOLDEN: &[(&str, &str)] = &[
    ("hello", "0100000800000001"),
    ("error", "010100180000000200030000a5a5a5a5a5a5a5a5a5a5a5a5"),
    ("echo_request", "0102000b00000003010203"),
    ("echo_reply", "0103000a000000040405"),
    ("vendor", "010400100000000500cafe42deadbeef"),
    ("features_request", "0105000800000006"),
    (
        "features_reply",
        "0106005000000007010203040506070800000100020000000000008700000fff\
         0001020000ee000165746831[00;23]20000000200000002000000000",
    ),
    (
        "packet_in",
        "010a001800000008ffffffff000600030000112233445566",
    ),
    (
        "packet_out",
        "010d001e00000009ffffffffffff00080000000800040000777777777777",
    ),
    (
        "flow_mod",
        "010e00500000000a003020ef[00;18]08[00;9]0a000005[00;19]64ffffffff\
         ffff00000000000800020000",
    ),
    (
        "flow_removed",
        "010b00580000000b003020ef[00;18]08[00;9]0a000006[00;10]0a0b000900\
         000000000c0000000d000e[00;9]0f0000000000000010",
    ),
    ("stats_request_desc", "0110000c0000000c00000000"),
    (
        "stats_request_flow",
        "011000380000000d00010000003820ff[00;36]ff00ffff",
    ),
    (
        "stats_request_aggregate",
        "011000380000000e00020000003020ef[00;18]08[00;9]0a00000700000000\
         00000005",
    ),
    ("stats_request_table", "0110000c0000000f00030000"),
    (
        "stats_reply_desc",
        "0111042c00000010000000006d6672[00;253]6877[00;254]7377[00;254]34\
         32[00;30]6470[00;254]",
    ),
    (
        "stats_reply_flow",
        "0111006c000000110001000000600100003020ef[00;18]08[00;9]0a000003\
         000000000000000400000005000600070008[00;13]09000000000000000a00\
         0000000000000b0000000800020000",
    ),
    (
        "stats_reply_aggregate",
        "01110024000000120002[00;9]1400000000000000150000001600000000",
    ),
    (
        "stats_reply_table",
        "0111004c0000001300030000000000007463616d[00;29]3fffff0000080000\
         00001700000000000000180000000000000019",
    ),
    ("barrier_request", "0112000800000014"),
    ("barrier_reply", "0113000800000015"),
];

#[test]
fn every_variant_encodes_to_its_recorded_bytes() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len(), "one recorded frame per case");
    for ((name, xid, msg), (golden_name, golden)) in cases.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        let bytes = msg.to_bytes(*xid);
        assert_eq!(hex(&bytes), *golden, "{name}");
        let (header, back) = Message::from_bytes(&bytes).expect("recorded frame decodes");
        assert_eq!(header.xid, *xid, "{name}");
        assert_eq!(&back, msg, "{name}");
    }
}

/// Appending frames back to back writes each one's recorded bytes.
#[test]
fn appended_frames_concatenate_the_recorded_bytes() {
    let mut stream = Vec::new();
    let mut expect = Vec::new();
    for (_, xid, msg) in cases() {
        msg.encode_frame_into(xid, &mut stream);
        expect.extend_from_slice(&msg.to_bytes(xid));
    }
    assert_eq!(stream, expect);
}
