//! Statistics request/reply messages: description, per-flow, aggregate,
//! and per-table statistics.
//!
//! Tango's probing engine reads flow statistics (traffic counters, and
//! durations, i.e. the attributes of the paper's cache-policy model §5.1)
//! and table statistics (`active_count`, `max_entries` — the inaccurate
//! self-reports that motivate measurement-based inference).

use crate::action::{Action, ActionList};
use crate::codec::{be_u16, be_u32, be_u64, pad, Decode, Encode};
use crate::error::{ensure, Result, WireError};
use crate::flow_match::FlowMatch;
use crate::types::PortNo;
use bytes::BufMut;

const OFPST_DESC: u16 = 0;
const OFPST_FLOW: u16 = 1;
const OFPST_AGGREGATE: u16 = 2;
const OFPST_TABLE: u16 = 3;

/// Writes a NUL-padded fixed-width string field.
fn put_fixed_str(buf: &mut Vec<u8>, s: &str, width: usize) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(width - 1);
    buf.put_slice(&bytes[..n]);
    pad(buf, width - n);
}

/// Reads a NUL-terminated fixed-width string field.
fn get_fixed_str(buf: &[u8], off: usize, width: usize) -> String {
    let field = &buf[off..off + width];
    let end = field.iter().position(|&b| b == 0).unwrap_or(width);
    String::from_utf8_lossy(&field[..end]).into_owned()
}

/// A statistics request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsRequestBody {
    /// Switch description.
    Desc,
    /// Per-flow statistics for entries covered by the filter.
    Flow {
        /// Match filter (use [`FlowMatch::any`] for all flows).
        filter: FlowMatch,
        /// Table to read, 0xff for all.
        table_id: u8,
        /// Restrict to flows outputting to this port.
        out_port: PortNo,
    },
    /// Aggregate over entries covered by the filter.
    Aggregate {
        /// Match filter.
        filter: FlowMatch,
        /// Table to read, 0xff for all.
        table_id: u8,
        /// Output-port restriction.
        out_port: PortNo,
    },
    /// Per-table statistics.
    Table,
}

impl StatsRequestBody {
    /// Request statistics for every flow in every table.
    #[must_use]
    pub fn all_flows() -> StatsRequestBody {
        StatsRequestBody::Flow {
            filter: FlowMatch::any(),
            table_id: 0xff,
            out_port: PortNo::NONE,
        }
    }

    fn stats_type(&self) -> u16 {
        match self {
            StatsRequestBody::Desc => OFPST_DESC,
            StatsRequestBody::Flow { .. } => OFPST_FLOW,
            StatsRequestBody::Aggregate { .. } => OFPST_AGGREGATE,
            StatsRequestBody::Table => OFPST_TABLE,
        }
    }
}

impl Encode for StatsRequestBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.stats_type());
        buf.put_u16(0); // flags
        match self {
            StatsRequestBody::Desc | StatsRequestBody::Table => {}
            StatsRequestBody::Flow {
                filter,
                table_id,
                out_port,
            }
            | StatsRequestBody::Aggregate {
                filter,
                table_id,
                out_port,
            } => {
                filter.encode(buf);
                buf.put_u8(*table_id);
                pad(buf, 1);
                buf.put_u16(out_port.0);
            }
        }
    }
}

impl Decode for StatsRequestBody {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, 4, "stats_request")?;
        let ty = be_u16(buf, 0);
        match ty {
            OFPST_DESC => Ok((StatsRequestBody::Desc, 4)),
            OFPST_TABLE => Ok((StatsRequestBody::Table, 4)),
            OFPST_FLOW | OFPST_AGGREGATE => {
                ensure(buf, 4 + 44, "flow stats request")?;
                let (filter, _) = FlowMatch::decode(&buf[4..])?;
                let table_id = buf[44];
                let out_port = PortNo(be_u16(buf, 46));
                let body = if ty == OFPST_FLOW {
                    StatsRequestBody::Flow {
                        filter,
                        table_id,
                        out_port,
                    }
                } else {
                    StatsRequestBody::Aggregate {
                        filter,
                        table_id,
                        out_port,
                    }
                };
                Ok((body, 48))
            }
            other => Err(WireError::BadEnumValue {
                what: "stats type",
                value: other as u32,
            }),
        }
    }
}

/// Statistics for a single flow entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStatsEntry {
    /// Table holding the entry.
    pub table_id: u8,
    /// The entry's match.
    pub flow_match: FlowMatch,
    /// Seconds the entry has been installed.
    pub duration_sec: u32,
    /// Sub-second remainder, nanoseconds.
    pub duration_nsec: u32,
    /// Entry priority.
    pub priority: u16,
    /// Idle timeout configured on the entry.
    pub idle_timeout: u16,
    /// Hard timeout configured on the entry.
    pub hard_timeout: u16,
    /// Controller cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// The entry's actions.
    pub actions: ActionList,
}

const FLOW_STATS_FIXED: usize = 88;

impl FlowStatsEntry {
    /// Encoded length including the length-prefix field.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        FLOW_STATS_FIXED + Action::list_len(&self.actions)
    }
}

impl Encode for FlowStatsEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.wire_len() as u16);
        buf.put_u8(self.table_id);
        pad(buf, 1);
        self.flow_match.encode(buf);
        buf.put_u32(self.duration_sec);
        buf.put_u32(self.duration_nsec);
        buf.put_u16(self.priority);
        buf.put_u16(self.idle_timeout);
        buf.put_u16(self.hard_timeout);
        pad(buf, 6);
        buf.put_u64(self.cookie);
        buf.put_u64(self.packet_count);
        buf.put_u64(self.byte_count);
        Action::encode_list(&self.actions, buf);
    }
}

impl Decode for FlowStatsEntry {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, FLOW_STATS_FIXED, "flow_stats entry")?;
        let length = be_u16(buf, 0) as usize;
        if length < FLOW_STATS_FIXED || length > buf.len() {
            return Err(WireError::BadLength {
                what: "flow_stats.length",
                len: length,
            });
        }
        let table_id = buf[2];
        let (flow_match, _) = FlowMatch::decode(&buf[4..])?;
        let duration_sec = be_u32(buf, 44);
        let duration_nsec = be_u32(buf, 48);
        let priority = be_u16(buf, 52);
        let idle_timeout = be_u16(buf, 54);
        let hard_timeout = be_u16(buf, 56);
        let cookie = be_u64(buf, 64);
        let packet_count = be_u64(buf, 72);
        let byte_count = be_u64(buf, 80);
        let (actions, _) =
            Action::decode_list(&buf[FLOW_STATS_FIXED..], length - FLOW_STATS_FIXED)?;
        Ok((
            FlowStatsEntry {
                table_id,
                flow_match,
                duration_sec,
                duration_nsec,
                priority,
                idle_timeout,
                hard_timeout,
                cookie,
                packet_count,
                byte_count,
                actions,
            },
            length,
        ))
    }
}

/// Aggregate statistics over a set of flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggregateStats {
    /// Total packets matched.
    pub packet_count: u64,
    /// Total bytes matched.
    pub byte_count: u64,
    /// Number of flows aggregated.
    pub flow_count: u32,
}

impl Encode for AggregateStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64(self.packet_count);
        buf.put_u64(self.byte_count);
        buf.put_u32(self.flow_count);
        pad(buf, 4);
    }
}

impl Decode for AggregateStats {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, 24, "aggregate_stats")?;
        Ok((
            AggregateStats {
                packet_count: be_u64(buf, 0),
                byte_count: be_u64(buf, 8),
                flow_count: be_u32(buf, 16),
            },
            24,
        ))
    }
}

/// Statistics for one flow table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStatsEntry {
    /// Table id.
    pub table_id: u8,
    /// Table name (e.g. "tcam", "userspace").
    pub name: String,
    /// Wildcard bits the table supports.
    pub wildcards: u32,
    /// Self-reported capacity. The paper stresses this can be wrong.
    pub max_entries: u32,
    /// Entries currently installed.
    pub active_count: u32,
    /// Packets looked up.
    pub lookup_count: u64,
    /// Packets that matched.
    pub matched_count: u64,
}

const TABLE_STATS_LEN: usize = 64;

impl Encode for TableStatsEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(self.table_id);
        pad(buf, 3);
        put_fixed_str(buf, &self.name, 32);
        buf.put_u32(self.wildcards);
        buf.put_u32(self.max_entries);
        buf.put_u32(self.active_count);
        buf.put_u64(self.lookup_count);
        buf.put_u64(self.matched_count);
    }
}

impl Decode for TableStatsEntry {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, TABLE_STATS_LEN, "table_stats entry")?;
        Ok((
            TableStatsEntry {
                table_id: buf[0],
                name: get_fixed_str(buf, 4, 32),
                wildcards: be_u32(buf, 36),
                max_entries: be_u32(buf, 40),
                active_count: be_u32(buf, 44),
                lookup_count: be_u64(buf, 48),
                matched_count: be_u64(buf, 56),
            },
            TABLE_STATS_LEN,
        ))
    }
}

/// Switch description strings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DescStats {
    /// Manufacturer.
    pub mfr_desc: String,
    /// Hardware revision.
    pub hw_desc: String,
    /// Software revision.
    pub sw_desc: String,
    /// Serial number.
    pub serial_num: String,
    /// Human-readable datapath description.
    pub dp_desc: String,
}

const DESC_STATS_LEN: usize = 256 + 256 + 256 + 32 + 256;

impl Encode for DescStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_fixed_str(buf, &self.mfr_desc, 256);
        put_fixed_str(buf, &self.hw_desc, 256);
        put_fixed_str(buf, &self.sw_desc, 256);
        put_fixed_str(buf, &self.serial_num, 32);
        put_fixed_str(buf, &self.dp_desc, 256);
    }
}

impl Decode for DescStats {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, DESC_STATS_LEN, "desc_stats")?;
        Ok((
            DescStats {
                mfr_desc: get_fixed_str(buf, 0, 256),
                hw_desc: get_fixed_str(buf, 256, 256),
                sw_desc: get_fixed_str(buf, 512, 256),
                serial_num: get_fixed_str(buf, 768, 32),
                dp_desc: get_fixed_str(buf, 800, 256),
            },
            DESC_STATS_LEN,
        ))
    }
}

/// A statistics reply body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsBody {
    /// Switch description.
    Desc(DescStats),
    /// Per-flow entries.
    Flow(Vec<FlowStatsEntry>),
    /// Aggregate counters.
    Aggregate(AggregateStats),
    /// Per-table entries.
    Table(Vec<TableStatsEntry>),
}

impl StatsBody {
    fn stats_type(&self) -> u16 {
        match self {
            StatsBody::Desc(_) => OFPST_DESC,
            StatsBody::Flow(_) => OFPST_FLOW,
            StatsBody::Aggregate(_) => OFPST_AGGREGATE,
            StatsBody::Table(_) => OFPST_TABLE,
        }
    }
}

impl Encode for StatsBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.stats_type());
        buf.put_u16(0); // flags: no more replies follow
        match self {
            StatsBody::Desc(d) => d.encode(buf),
            StatsBody::Flow(entries) => {
                for e in entries {
                    e.encode(buf);
                }
            }
            StatsBody::Aggregate(a) => a.encode(buf),
            StatsBody::Table(entries) => {
                for e in entries {
                    e.encode(buf);
                }
            }
        }
    }
}

impl Decode for StatsBody {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, 4, "stats_reply")?;
        let ty = be_u16(buf, 0);
        let mut off = 4;
        let body = match ty {
            OFPST_DESC => {
                let (d, used) = DescStats::decode(&buf[off..])?;
                off += used;
                StatsBody::Desc(d)
            }
            OFPST_FLOW => {
                let mut entries = Vec::new();
                while off < buf.len() {
                    let (e, used) = FlowStatsEntry::decode(&buf[off..])?;
                    entries.push(e);
                    off += used;
                }
                StatsBody::Flow(entries)
            }
            OFPST_AGGREGATE => {
                let (a, used) = AggregateStats::decode(&buf[off..])?;
                off += used;
                StatsBody::Aggregate(a)
            }
            OFPST_TABLE => {
                let mut entries = Vec::new();
                while off < buf.len() {
                    let (e, used) = TableStatsEntry::decode(&buf[off..])?;
                    entries.push(e);
                    off += used;
                }
                StatsBody::Table(entries)
            }
            other => {
                return Err(WireError::BadEnumValue {
                    what: "stats type",
                    value: other as u32,
                })
            }
        };
        Ok((body, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_flow_entry(id: u32) -> FlowStatsEntry {
        FlowStatsEntry {
            table_id: 0,
            flow_match: FlowMatch::l3_for_id(id),
            duration_sec: 10,
            duration_nsec: 500,
            priority: 100,
            idle_timeout: 0,
            hard_timeout: 0,
            cookie: u64::from(id),
            packet_count: 42,
            byte_count: 4200,
            actions: Action::output(2).into(),
        }
    }

    #[test]
    fn flow_request_roundtrip() {
        let req = StatsRequestBody::all_flows();
        let (back, _) = StatsRequestBody::decode(&req.to_vec()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn desc_and_table_requests_roundtrip() {
        for req in [StatsRequestBody::Desc, StatsRequestBody::Table] {
            let (back, used) = StatsRequestBody::decode(&req.to_vec()).unwrap();
            assert_eq!(used, 4);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn aggregate_request_roundtrip() {
        let req = StatsRequestBody::Aggregate {
            filter: FlowMatch::l2_for_id(7),
            table_id: 0,
            out_port: PortNo(4),
        };
        let (back, _) = StatsRequestBody::decode(&req.to_vec()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn flow_stats_reply_roundtrip() {
        let body = StatsBody::Flow(vec![sample_flow_entry(1), sample_flow_entry(2)]);
        let (back, _) = StatsBody::decode(&body.to_vec()).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn empty_flow_stats_reply() {
        let body = StatsBody::Flow(vec![]);
        let (back, _) = StatsBody::decode(&body.to_vec()).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn aggregate_reply_roundtrip() {
        let body = StatsBody::Aggregate(AggregateStats {
            packet_count: 1,
            byte_count: 2,
            flow_count: 3,
        });
        let (back, _) = StatsBody::decode(&body.to_vec()).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn table_stats_reply_roundtrip() {
        let body = StatsBody::Table(vec![
            TableStatsEntry {
                table_id: 0,
                name: "tcam".into(),
                wildcards: 0x3fffff,
                max_entries: 2048,
                active_count: 100,
                lookup_count: 999,
                matched_count: 900,
            },
            TableStatsEntry {
                table_id: 1,
                name: "userspace".into(),
                wildcards: 0x3fffff,
                max_entries: u32::MAX,
                active_count: 5,
                lookup_count: 10,
                matched_count: 1,
            },
        ]);
        let (back, _) = StatsBody::decode(&body.to_vec()).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn desc_reply_roundtrip() {
        let body = StatsBody::Desc(DescStats {
            mfr_desc: "Tango Labs".into(),
            hw_desc: "simulated".into(),
            sw_desc: "switchsim 0.1".into(),
            serial_num: "0001".into(),
            dp_desc: "vendor profile #1".into(),
        });
        let (back, _) = StatsBody::decode(&body.to_vec()).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn bad_stats_type_rejected() {
        let mut buf = Vec::new();
        buf.put_u16(99);
        buf.put_u16(0);
        assert!(StatsBody::decode(&buf).is_err());
        assert!(StatsRequestBody::decode(&buf).is_err());
    }
}
