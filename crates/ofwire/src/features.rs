//! `features_request` / `features_reply`: the switch's self-reported
//! capabilities.
//!
//! The paper's central observation is that these reports are incomplete
//! and sometimes wrong — e.g. `n_tables` says nothing about software vs
//! TCAM tables, and no field reports cache policy. Tango therefore
//! measures instead of trusting this message; we implement it faithfully
//! so the contrast can be reproduced (the simulated switches may report
//! inaccurate numbers here, mirroring §1).

use crate::codec::{be_u16, be_u32, be_u64, pad, Decode, Encode};
use crate::error::{ensure, Result};
use crate::types::{Dpid, MacAddr, PortNo};
use bytes::BufMut;

/// Size of one encoded physical-port description.
pub const PHY_PORT_LEN: usize = 48;
/// Size of the fixed part of a features reply.
pub const FEATURES_REPLY_FIXED: usize = 24;

/// Description of one switch port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhyPort {
    /// Port number.
    pub port_no: PortNo,
    /// MAC address of the port.
    pub hw_addr: MacAddr,
    /// Human-readable name (at most 15 bytes + NUL on the wire).
    pub name: String,
    /// Administrative configuration bits.
    pub config: u32,
    /// Link state bits.
    pub state: u32,
    /// Current features bitmap.
    pub curr: u32,
    /// Advertised features bitmap.
    pub advertised: u32,
    /// Supported features bitmap.
    pub supported: u32,
    /// Peer-advertised features bitmap.
    pub peer: u32,
}

impl PhyPort {
    /// A simple 1 Gb/s copper port with the given number.
    #[must_use]
    pub fn gigabit(port_no: u16) -> PhyPort {
        PhyPort {
            port_no: PortNo(port_no),
            hw_addr: MacAddr::from_host_id(0x00ee_0000 | u32::from(port_no)),
            name: format!("eth{port_no}"),
            config: 0,
            state: 0,
            curr: 1 << 5, // OFPPF_1GB_FD
            advertised: 1 << 5,
            supported: 1 << 5,
            peer: 0,
        }
    }
}

impl Encode for PhyPort {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.port_no.0);
        buf.put_slice(&self.hw_addr.0);
        let mut name = [0u8; 16];
        let n = self.name.len().min(15);
        name[..n].copy_from_slice(&self.name.as_bytes()[..n]);
        buf.put_slice(&name);
        buf.put_u32(self.config);
        buf.put_u32(self.state);
        buf.put_u32(self.curr);
        buf.put_u32(self.advertised);
        buf.put_u32(self.supported);
        buf.put_u32(self.peer);
    }
}

impl Decode for PhyPort {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, PHY_PORT_LEN, "phy_port")?;
        let mut mac = [0u8; 6];
        mac.copy_from_slice(&buf[2..8]);
        let name_bytes = &buf[8..24];
        let end = name_bytes.iter().position(|&b| b == 0).unwrap_or(16);
        let name = String::from_utf8_lossy(&name_bytes[..end]).into_owned();
        Ok((
            PhyPort {
                port_no: PortNo(be_u16(buf, 0)),
                hw_addr: MacAddr(mac),
                name,
                config: be_u32(buf, 24),
                state: be_u32(buf, 28),
                curr: be_u32(buf, 32),
                advertised: be_u32(buf, 36),
                supported: be_u32(buf, 40),
                peer: be_u32(buf, 44),
            },
            PHY_PORT_LEN,
        ))
    }
}

/// The switch's feature report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeaturesReply {
    /// Datapath id.
    pub datapath_id: Dpid,
    /// Number of packet buffers.
    pub n_buffers: u32,
    /// Number of flow tables the switch *claims* to have. Per the paper,
    /// this number is not a reliable guide to actual table structure.
    pub n_tables: u8,
    /// Capability bits.
    pub capabilities: u32,
    /// Supported-action bitmap.
    pub actions: u32,
    /// Physical ports.
    pub ports: Vec<PhyPort>,
}

impl FeaturesReply {
    /// Encoded body length.
    #[must_use]
    pub fn body_len(&self) -> usize {
        FEATURES_REPLY_FIXED + self.ports.len() * PHY_PORT_LEN
    }
}

impl Encode for FeaturesReply {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64(self.datapath_id.0);
        buf.put_u32(self.n_buffers);
        buf.put_u8(self.n_tables);
        pad(buf, 3);
        buf.put_u32(self.capabilities);
        buf.put_u32(self.actions);
        for p in &self.ports {
            p.encode(buf);
        }
    }
}

impl Decode for FeaturesReply {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, FEATURES_REPLY_FIXED, "features_reply")?;
        let datapath_id = Dpid(be_u64(buf, 0));
        let n_buffers = be_u32(buf, 8);
        let n_tables = buf[12];
        let capabilities = be_u32(buf, 16);
        let actions = be_u32(buf, 20);
        let mut ports = Vec::new();
        let mut off = FEATURES_REPLY_FIXED;
        while off < buf.len() {
            let (p, used) = PhyPort::decode(&buf[off..])?;
            ports.push(p);
            off += used;
        }
        Ok((
            FeaturesReply {
                datapath_id,
                n_buffers,
                n_tables,
                capabilities,
                actions,
                ports,
            },
            off,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phy_port_roundtrip() {
        let p = PhyPort::gigabit(3);
        let bytes = p.to_vec();
        assert_eq!(bytes.len(), PHY_PORT_LEN);
        let (back, _) = PhyPort::decode(&bytes).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn long_port_names_truncate() {
        let mut p = PhyPort::gigabit(1);
        p.name = "a-very-long-interface-name".into();
        let (back, _) = PhyPort::decode(&p.to_vec()).unwrap();
        assert_eq!(back.name, "a-very-long-int");
        assert_eq!(back.name.len(), 15);
    }

    #[test]
    fn features_reply_roundtrip() {
        let fr = FeaturesReply {
            datapath_id: Dpid(42),
            n_buffers: 256,
            n_tables: 2,
            capabilities: 0x87,
            actions: 0xfff,
            ports: vec![PhyPort::gigabit(1), PhyPort::gigabit(2)],
        };
        let bytes = fr.to_vec();
        assert_eq!(bytes.len(), fr.body_len());
        let (back, _) = FeaturesReply::decode(&bytes).unwrap();
        assert_eq!(back, fr);
    }

    #[test]
    fn features_reply_no_ports() {
        let fr = FeaturesReply {
            datapath_id: Dpid(1),
            n_buffers: 0,
            n_tables: 1,
            capabilities: 0,
            actions: 0,
            ports: vec![],
        };
        let (back, _) = FeaturesReply::decode(&fr.to_vec()).unwrap();
        assert_eq!(back, fr);
    }
}
