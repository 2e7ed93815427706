//! Small value types shared across the protocol: datapath ids, ports,
//! transaction ids, buffer ids, and MAC addresses.

use std::fmt;

/// A datapath identifier — the 64-bit unique id of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Dpid(pub u64);

impl fmt::Display for Dpid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dpid:{:016x}", self.0)
    }
}

/// An OpenFlow transaction id carried in every message header. Replies
/// echo the xid of the request they answer, which is how the probing
/// engine pairs barriers and echoes with their round-trip times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Xid(pub u32);

impl Xid {
    /// Returns the next xid, wrapping on overflow.
    #[must_use]
    pub fn next(self) -> Xid {
        Xid(self.0.wrapping_add(1))
    }
}

/// A switch port number (OpenFlow 1.0 uses 16 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PortNo(pub u16);

impl PortNo {
    /// Wildcard port used in `flow_mod` delete filters and stats requests:
    /// matches any port.
    pub const NONE: PortNo = PortNo(0xffff);
    /// Virtual port: send the packet to the controller.
    pub const CONTROLLER: PortNo = PortNo(0xfffd);
    /// Virtual port: process in the local networking stack.
    pub const LOCAL: PortNo = PortNo(0xfffe);
    /// Virtual port: flood to all physical ports except the ingress port.
    pub const FLOOD: PortNo = PortNo(0xfffb);
    /// Virtual port: packet came in on this port (used in actions).
    pub const IN_PORT: PortNo = PortNo(0xfff8);

    /// True if this is a real physical port rather than a virtual one.
    #[must_use]
    pub fn is_physical(self) -> bool {
        self.0 < 0xff00
    }
}

/// A buffered-packet id. [`BufferId::NO_BUFFER`] means the full packet is
/// carried inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u32);

impl BufferId {
    /// Sentinel: no packet is buffered on the switch.
    pub const NO_BUFFER: BufferId = BufferId(0xffff_ffff);
}

impl Default for BufferId {
    fn default() -> Self {
        BufferId::NO_BUFFER
    }
}

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a locally-administered unicast MAC from a 32-bit host id.
    /// Useful for generating large families of distinct addresses in
    /// probing workloads.
    #[must_use]
    pub fn from_host_id(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Recovers the host id from an address built by [`MacAddr::from_host_id`].
    #[must_use]
    pub fn host_id(self) -> u32 {
        u32::from_be_bytes([self.0[2], self.0[3], self.0[4], self.0[5]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xid_wraps() {
        assert_eq!(Xid(0).next(), Xid(1));
        assert_eq!(Xid(u32::MAX).next(), Xid(0));
    }

    #[test]
    fn port_classification() {
        assert!(PortNo(1).is_physical());
        assert!(PortNo(0xfeff).is_physical());
        assert!(!PortNo::CONTROLLER.is_physical());
        assert!(!PortNo::NONE.is_physical());
    }

    #[test]
    fn mac_host_id_roundtrip() {
        for id in [0u32, 1, 4096, u32::MAX] {
            assert_eq!(MacAddr::from_host_id(id).host_id(), id);
        }
    }

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr::BROADCAST.to_string(), "ff:ff:ff:ff:ff:ff");
        assert_eq!(
            MacAddr::from_host_id(0x01020304).to_string(),
            "02:00:01:02:03:04"
        );
    }

    #[test]
    fn default_buffer_id_is_no_buffer() {
        assert_eq!(BufferId::default(), BufferId::NO_BUFFER);
    }

    #[test]
    fn dpid_display() {
        assert_eq!(Dpid(0xabc).to_string(), "dpid:0000000000000abc");
    }
}
