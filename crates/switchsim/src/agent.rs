//! The OpenFlow agent: the switch's communication layer.
//!
//! Consumes raw wire bytes (framed `ofwire` messages), drives the switch,
//! and produces wire replies — so every experiment exercises the real
//! encode → frame → decode → dispatch pipeline, exactly as a hardware
//! switch's OVS-derived agent would (§2, "Communication Layer").

use crate::expiry::{Expired, RemovalReason};
use crate::pipeline::Hit;
use crate::switch::{FlowModEffect, FlowModError, Switch};
use ofwire::codec::{Decode, Frame, Framer};
use ofwire::error::WireError;
use ofwire::error_msg::ErrorMsg;
use ofwire::flow_mod::FlowMod;
use ofwire::flow_removed::{FlowRemoved, FlowRemovedReason};
use ofwire::header::MessageType;
use ofwire::message::Message;
use ofwire::packet::{PacketIn, PacketInReason, PacketOutView, RawFrame};
use ofwire::stats::{DescStats, StatsBody, StatsRequestBody};
use ofwire::types::{BufferId, PortNo, Xid};
use simnet::time::{SimDuration, SimTime};

/// One output produced while processing an input message.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentOutput {
    /// Wire reply to the controller, if this message produces one.
    pub reply: Option<Message>,
    /// Xid the reply carries (echoes the request).
    pub xid: Xid,
    /// Data-plane forwarding outcome, for `packet_out`-injected frames.
    pub forwarded: Option<(Hit, SimDuration)>,
    /// Control-plane processing cost charged by this message.
    pub cost: SimDuration,
}

/// Converts an expiry record into its wire notification.
fn expired_to_msg(exp: &Expired, now: SimTime) -> FlowRemoved {
    let age = now.since(exp.entry.inserted_at);
    FlowRemoved {
        flow_match: exp.entry.flow_match.unpack(),
        cookie: exp.entry.cookie,
        priority: exp.entry.priority,
        reason: match exp.reason {
            RemovalReason::IdleTimeout => FlowRemovedReason::IdleTimeout,
            RemovalReason::HardTimeout => FlowRemovedReason::HardTimeout,
        },
        duration_sec: (age.0 / 1_000_000_000) as u32,
        duration_nsec: (age.0 % 1_000_000_000) as u32,
        idle_timeout: exp.entry.idle_timeout,
        packet_count: exp.entry.packet_count,
        byte_count: exp.entry.byte_count,
    }
}

/// The switch-side protocol agent.
#[derive(Debug, Clone)]
pub struct Agent {
    switch: Switch,
    framer: Framer,
}

impl Agent {
    /// Wraps a switch in an agent.
    #[must_use]
    pub fn new(switch: Switch) -> Agent {
        Agent {
            switch,
            framer: Framer::new(),
        }
    }

    /// Read access to the underlying switch (for assertions and stats).
    #[must_use]
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Mutable access to the underlying switch (used by harnesses that
    /// inject data-plane traffic without a `packet_out`).
    pub fn switch_mut(&mut self) -> &mut Switch {
        &mut self.switch
    }

    /// Bytes of a frame torn across [`Agent::feed_into`] calls, held
    /// until the rest of it arrives.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.framer.pending()
    }

    /// Feeds raw bytes from the control channel: processes every complete
    /// message, appending its output to `outputs` in order. Expired
    /// entries detected while processing surface as unsolicited
    /// `flow_removed` notifications (xid 0) appended after the triggering
    /// message.
    ///
    /// Each whole frame is read where it lies in `bytes` (only a frame
    /// torn across calls is completed in the framer's buffer). A frame is
    /// held only while it is dispatched; what outlives it — a `packet_in`
    /// payload, an error's request prefix — is copied out.
    pub fn feed_into(
        &mut self,
        bytes: &[u8],
        now: SimTime,
        outputs: &mut Vec<AgentOutput>,
    ) -> Result<(), WireError> {
        let mut input = bytes;
        while let Some(frame) = self.framer.next_frame_from(&mut input)? {
            match Self::dispatch(&mut self.switch, &frame, now) {
                Ok(out) => outputs.push(out),
                Err(e) => return Err(self.framer.poison(e)),
            }
            for exp in self.switch.take_expired() {
                outputs.push(AgentOutput {
                    reply: Some(Message::FlowRemoved(expired_to_msg(&exp, now))),
                    xid: Xid(0),
                    forwarded: None,
                    cost: SimDuration::ZERO,
                });
            }
        }
        Ok(())
    }

    fn dispatch(
        switch: &mut Switch,
        frame: &Frame<'_>,
        now: SimTime,
    ) -> Result<AgentOutput, WireError> {
        let mut out = AgentOutput {
            reply: None,
            xid: frame.header.xid,
            forwarded: None,
            cost: SimDuration::ZERO,
        };
        // The two hot frame types never become a `Message`; each opens
        // with its own expiry sweep (`inject`, `apply_flow_mod`).
        match frame.header.msg_type {
            MessageType::PacketOut => {
                // A probe is read in place: nothing of it is kept on a hit.
                let po = PacketOutView::parse(frame.body())?;
                Self::packet_out(switch, &po, now, &mut out);
                return Ok(out);
            }
            MessageType::FlowMod => {
                // The decoder `Message::decode_body` calls, its value
                // handed straight to the switch.
                let (fm, _) = FlowMod::decode(frame.body())?;
                Self::flow_mod(switch, &fm, frame, now, &mut out);
                return Ok(out);
            }
            _ => {}
        }
        let msg = frame.decode()?;
        // Every control-channel message advances the switch's notion of
        // time, so the expiry sweep runs first (timeouts fire even on
        // messages that don't touch the tables, e.g. barriers).
        switch.expire(now);
        match msg {
            Message::Hello => out.reply = Some(Message::Hello),
            Message::EchoRequest(data) => out.reply = Some(Message::EchoReply(data)),
            Message::FeaturesRequest => {
                out.reply = Some(Message::FeaturesReply(switch.features_reply(8)));
            }
            Message::BarrierRequest => {
                // All earlier messages in this feed were already processed
                // (costs accounted); the barrier itself is free.
                out.reply = Some(Message::BarrierReply);
            }
            Message::StatsRequest(req) => {
                let body = match req {
                    StatsRequestBody::Desc => StatsBody::Desc(DescStats {
                        mfr_desc: "tango-repro".into(),
                        hw_desc: switch.profile_name.clone(),
                        sw_desc: "switchsim".into(),
                        serial_num: format!("{}", switch.dpid.0),
                        dp_desc: switch.profile_name.clone(),
                    }),
                    StatsRequestBody::Flow { .. } => StatsBody::Flow(switch.flow_stats(now)),
                    StatsRequestBody::Aggregate { .. } => {
                        let flows = switch.flow_stats(now);
                        StatsBody::Aggregate(ofwire::stats::AggregateStats {
                            packet_count: flows.iter().map(|f| f.packet_count).sum(),
                            byte_count: flows.iter().map(|f| f.byte_count).sum(),
                            flow_count: flows.len() as u32,
                        })
                    }
                    StatsRequestBody::Table => StatsBody::Table(switch.table_stats()),
                };
                out.reply = Some(Message::StatsReply(body));
            }
            Message::PacketOut(_) | Message::FlowMod(_) => {
                unreachable!("packet_out and flow_mod frames are handled above")
            }
            // Messages a switch never receives — plus vendor extensions
            // this agent does not implement — are ignored.
            Message::Vendor { .. }
            | Message::Error(_)
            | Message::EchoReply(_)
            | Message::FeaturesReply(_)
            | Message::PacketIn(_)
            | Message::FlowRemoved(_)
            | Message::StatsReply(_)
            | Message::BarrierReply => {}
        }
        Ok(out)
    }

    /// Applies a decoded flow-mod; `frame` is the request as it arrived,
    /// whose head a rejection quotes.
    fn flow_mod(
        switch: &mut Switch,
        fm: &FlowMod,
        frame: &Frame<'_>,
        now: SimTime,
        out: &mut AgentOutput,
    ) {
        let (result, cost) = switch.apply_flow_mod(fm, now);
        out.cost = cost;
        match result {
            Ok(FlowModEffect::Added { .. })
            | Ok(FlowModEffect::Modified(_))
            | Ok(FlowModEffect::Deleted(_)) => {}
            Err(FlowModError::TableFull) => {
                let prefix = &frame.bytes[..frame.bytes.len().min(64)];
                out.reply = Some(Message::Error(ErrorMsg::table_full(prefix.to_vec())));
            }
        }
    }

    /// Parses the real frame a `packet_out` carries and runs it through
    /// the pipeline.
    fn packet_out(
        switch: &mut Switch,
        po: &PacketOutView<'_>,
        now: SimTime,
        out: &mut AgentOutput,
    ) {
        match RawFrame::parse(po.data, po.in_port) {
            Ok(key) => {
                let (hit, delay) = switch.inject(&key, now, po.data.len() as u64);
                if hit == Hit::Miss {
                    // No table matched: the packet goes back up.
                    out.reply = Some(Message::PacketIn(PacketIn {
                        buffer_id: BufferId::NO_BUFFER,
                        total_len: po.data.len() as u16,
                        in_port: if po.in_port == PortNo::NONE {
                            PortNo(1)
                        } else {
                            po.in_port
                        },
                        reason: PacketInReason::NoMatch,
                        data: po.data.to_vec(),
                    }));
                }
                out.forwarded = Some((hit, delay));
            }
            Err(_) => {
                // Unparseable frame: drop silently (as hardware
                // would for a runt frame). Nothing was injected,
                // so the sweep has not run yet.
                switch.expire(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::SwitchProfile;
    use ofwire::flow_match::FlowMatch;
    use ofwire::flow_mod::FlowMod;
    use ofwire::packet::PacketOut;
    use ofwire::types::Dpid;

    fn agent(profile: SwitchProfile) -> Agent {
        Agent::new(Switch::new(profile, Dpid(9), 7))
    }

    /// Feeds `bytes` and returns what they produced.
    pub(super) fn feed(a: &mut Agent, bytes: &[u8], now: SimTime) -> Vec<AgentOutput> {
        let mut outs = Vec::new();
        a.feed_into(bytes, now, &mut outs).unwrap();
        outs
    }

    fn feed_one(a: &mut Agent, msg: Message, xid: u32, now: SimTime) -> Vec<AgentOutput> {
        feed(a, &msg.to_bytes(Xid(xid)), now)
    }

    #[test]
    fn hello_echo_features() {
        let mut a = agent(SwitchProfile::ovs());
        let out = feed_one(&mut a, Message::Hello, 1, SimTime(0));
        assert_eq!(out[0].reply, Some(Message::Hello));
        let out = feed_one(&mut a, Message::EchoRequest(vec![1, 2]), 2, SimTime(0));
        assert_eq!(out[0].reply, Some(Message::EchoReply(vec![1, 2])));
        let out = feed_one(&mut a, Message::FeaturesRequest, 3, SimTime(0));
        assert!(matches!(out[0].reply, Some(Message::FeaturesReply(_))));
        assert_eq!(out[0].xid, Xid(3));
    }

    #[test]
    fn flow_mod_charges_cost_and_barrier_replies() {
        let mut a = agent(SwitchProfile::vendor1());
        let fm = Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10));
        let out = feed_one(&mut a, fm, 4, SimTime(0));
        assert!(out[0].reply.is_none(), "successful add is silent");
        assert!(out[0].cost > SimDuration::ZERO);
        let out = feed_one(&mut a, Message::BarrierRequest, 5, SimTime(1));
        assert_eq!(out[0].reply, Some(Message::BarrierReply));
        assert_eq!(out[0].cost, SimDuration::ZERO);
    }

    #[test]
    fn table_full_produces_error_reply() {
        let mut a = agent(SwitchProfile::vendor3());
        let mut got_error = false;
        for i in 0..1000u32 {
            let fm = Message::FlowMod(FlowMod::add(FlowMatch::l2l3_for_id(i), 10));
            let request = fm.to_bytes(Xid(i));
            let out = feed(&mut a, &request, SimTime(u64::from(i)));
            if let Some(Message::Error(e)) = &out[0].reply {
                assert!(e.is_table_full());
                assert_eq!(e.data, request[..64], "the request's first 64 bytes");
                assert_eq!(out[0].xid, Xid(i));
                assert_eq!(i, 369, "vendor3 holds exactly 369 L2+L3 entries");
                got_error = true;
                break;
            }
        }
        assert!(got_error);
    }

    #[test]
    fn packet_out_forwards_or_punts() {
        let mut a = agent(SwitchProfile::vendor2());
        let fm = Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(7), 10));
        feed_one(&mut a, fm, 1, SimTime(0));
        // Matching frame: forwarded, no packet_in.
        let frame = RawFrame::build(&FlowMatch::key_for_id(7), 0);
        let po = Message::PacketOut(PacketOut::send(frame, PortNo(1)));
        let out = feed_one(&mut a, po, 2, SimTime(1));
        assert!(out[0].reply.is_none());
        let (hit, delay) = out[0].forwarded.unwrap();
        assert!(matches!(hit, Hit::Table { level: 0, .. }));
        assert!(delay > SimDuration::ZERO);
        // Non-matching frame: punted to the controller as packet_in.
        let frame = RawFrame::build(&FlowMatch::key_for_id(8), 0);
        let po = Message::PacketOut(PacketOut::send(frame, PortNo(1)));
        let out = feed_one(&mut a, po, 3, SimTime(2));
        assert!(matches!(out[0].reply, Some(Message::PacketIn(_))));
        assert_eq!(
            out[0].forwarded,
            Some((Hit::Miss, out[0].forwarded.unwrap().1))
        );
    }

    #[test]
    fn stats_round_trip_through_wire() {
        let mut a = agent(SwitchProfile::ovs());
        feed_one(
            &mut a,
            Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10)),
            1,
            SimTime(0),
        );
        let out = feed_one(
            &mut a,
            Message::StatsRequest(StatsRequestBody::all_flows()),
            2,
            SimTime(1),
        );
        match &out[0].reply {
            Some(Message::StatsReply(StatsBody::Flow(entries))) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].priority, 10);
            }
            other => panic!("expected flow stats, got {other:?}"),
        }
        let out = feed_one(
            &mut a,
            Message::StatsRequest(StatsRequestBody::Table),
            3,
            SimTime(2),
        );
        assert!(matches!(
            out[0].reply,
            Some(Message::StatsReply(StatsBody::Table(_)))
        ));
    }

    #[test]
    fn pipelined_messages_in_one_feed() {
        let mut a = agent(SwitchProfile::ovs());
        let mut bytes = Vec::new();
        for i in 0..5u32 {
            bytes.extend(
                Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(i), 10)).to_bytes(Xid(i)),
            );
        }
        bytes.extend(Message::BarrierRequest.to_bytes(Xid(99)));
        let out = feed(&mut a, &bytes, SimTime(0));
        assert_eq!(out.len(), 6);
        assert_eq!(out[5].reply, Some(Message::BarrierReply));
        assert_eq!(a.switch().rule_count(), 5);
    }
}

#[cfg(test)]
mod expiry_tests {
    use super::tests::feed;
    use super::*;
    use crate::profiles::SwitchProfile;
    use ofwire::flow_match::FlowMatch;
    use ofwire::flow_mod::FlowMod;
    use ofwire::types::Dpid;

    #[test]
    fn hard_timeout_emits_flow_removed_over_wire() {
        let mut a = Agent::new(Switch::new(SwitchProfile::vendor2(), Dpid(3), 1));
        let mut fm = FlowMod::add(FlowMatch::l3_for_id(1), 50);
        fm.hard_timeout = 2; // seconds
        fm.cookie = 0xfeed;
        feed(
            &mut a,
            &Message::FlowMod(fm).to_bytes(Xid(1)),
            SimTime::ZERO,
        );
        assert_eq!(a.switch().rule_count(), 1);
        // Any later message triggers the lazy expiry sweep.
        let later = SimTime::ZERO + SimDuration::from_secs(3);
        let outs = feed(&mut a, &Message::BarrierRequest.to_bytes(Xid(2)), later);
        assert_eq!(a.switch().rule_count(), 0);
        let removed = outs
            .iter()
            .find_map(|o| match &o.reply {
                Some(Message::FlowRemoved(fr)) => Some(fr.clone()),
                _ => None,
            })
            .expect("flow_removed notification");
        assert_eq!(removed.cookie, 0xfeed);
        assert_eq!(removed.reason, FlowRemovedReason::HardTimeout);
        assert_eq!(removed.duration_sec, 3);
    }

    /// One sweep per message, whichever path the message takes: a rule
    /// that lapsed since the previous message is reported exactly once,
    /// and it is gone before the message's own effect is computed.
    #[test]
    fn lapse_between_messages_is_reported_once_before_the_next_effect() {
        use ofwire::packet::{PacketOut, RawFrame};
        let m = FlowMatch::l3_for_id(1);
        let frame = RawFrame::build(&FlowMatch::key_for_id(1), 0);
        let seconds = [
            Message::FlowMod(FlowMod::delete_strict(m, 50)),
            Message::PacketOut(PacketOut::send(frame, PortNo(1))),
            Message::PacketOut(PacketOut::send(vec![0; 3], PortNo(1))), // runt
            Message::BarrierRequest,
        ];
        for second in seconds {
            let mut a = Agent::new(Switch::new(SwitchProfile::vendor2(), Dpid(3), 1));
            let mut fm = FlowMod::add(m, 50);
            fm.hard_timeout = 2;
            feed(
                &mut a,
                &Message::FlowMod(fm).to_bytes(Xid(1)),
                SimTime::ZERO,
            );
            let later = SimTime::ZERO + SimDuration::from_secs(3);
            let outs = feed(&mut a, &second.to_bytes(Xid(2)), later);
            let removed = |outs: &[AgentOutput]| {
                outs.iter()
                    .filter(|o| matches!(o.reply, Some(Message::FlowRemoved(_))))
                    .count()
            };
            assert_eq!(removed(&outs), 1, "{second:?}");
            assert_eq!(outs[0].xid, Xid(2), "the notification follows the message");
            let stats = a.switch().stats();
            assert_eq!(stats.expired_rules, 1, "{second:?}");
            // The delete found nothing left to delete; the packet missed.
            assert_eq!(stats.deleted_rules, 0);
            if let Some((hit, _)) = outs[0].forwarded {
                assert_eq!(hit, Hit::Miss);
            }
            let again = feed(&mut a, &Message::BarrierRequest.to_bytes(Xid(3)), later);
            assert_eq!(removed(&again), 0, "{second:?}");
        }
    }

    #[test]
    fn idle_timeout_survives_while_trafficked() {
        let mut sw = Switch::new(SwitchProfile::vendor2(), Dpid(3), 1);
        let mut fm = FlowMod::add(FlowMatch::l3_for_id(1), 50);
        fm.idle_timeout = 2;
        sw.apply_flow_mod(&fm, SimTime::ZERO).0.unwrap();
        // Keep the flow warm every second: it never idles out.
        let key = FlowMatch::key_for_id(1);
        for s in 1..6 {
            sw.inject(&key, SimTime::ZERO + SimDuration::from_secs(s), 64);
            assert_eq!(sw.rule_count(), 1, "t={s}s");
        }
        // Go quiet for 2 s: it expires.
        sw.expire(SimTime::ZERO + SimDuration::from_secs(8));
        assert_eq!(sw.rule_count(), 0);
        let exp = sw.take_expired();
        assert_eq!(exp.len(), 1);
        assert_eq!(exp[0].reason, crate::expiry::RemovalReason::IdleTimeout);
        assert_eq!(exp[0].entry.packet_count, 5);
    }

    #[test]
    fn expiry_frees_tcam_capacity() {
        // Fill a TCAM-only switch with short-lived rules; once they
        // expire, new rules fit again.
        let mut sw = Switch::new(SwitchProfile::vendor3(), Dpid(4), 2);
        for i in 0..767u32 {
            let mut fm = FlowMod::add(FlowMatch::l3_for_id(i), 50);
            fm.hard_timeout = 1;
            sw.apply_flow_mod(&fm, SimTime::ZERO).0.unwrap();
        }
        // Table full right now…
        let (res, _) = sw.apply_flow_mod(&FlowMod::add(FlowMatch::l3_for_id(9999), 50), SimTime(1));
        assert!(res.is_err());
        // …but after the timeout everything fits again.
        let later = SimTime::ZERO + SimDuration::from_secs(2);
        let (res, _) = sw.apply_flow_mod(&FlowMod::add(FlowMatch::l3_for_id(9999), 50), later);
        assert!(res.is_ok());
        assert_eq!(sw.rule_count(), 1);
        assert_eq!(sw.take_expired().len(), 767);
    }

    #[test]
    fn fifo_backfills_after_expiry() {
        // Expiring TCAM residents promotes the oldest software entries.
        let mut sw = Switch::new(
            SwitchProfile::generic_cached(2, crate::cache::CachePolicy::fifo()),
            Dpid(5),
            3,
        );
        // Two TCAM residents with a hard timeout; two spilled without.
        for i in 0..4u32 {
            let mut fm = FlowMod::add(FlowMatch::l3_for_id(i), 50);
            if i < 2 {
                fm.hard_timeout = 1;
            }
            sw.apply_flow_mod(&fm, SimTime(u64::from(i))).0.unwrap();
        }
        sw.expire(SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(sw.rule_count(), 2);
        assert_eq!(sw.level_occupancy(0), 2, "survivors promoted to TCAM");
    }
}
