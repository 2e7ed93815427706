//! Strategies shared by the property-test files of this directory.

use ofwire::prelude::*;
use proptest::prelude::*;

pub fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

/// Every action variant.
pub fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(p, m)| Action::Output {
            port: PortNo(p),
            max_len: m
        }),
        any::<u16>().prop_map(Action::SetVlanVid),
        (0u8..8).prop_map(Action::SetVlanPcp),
        Just(Action::StripVlan),
        arb_mac().prop_map(Action::SetDlSrc),
        arb_mac().prop_map(Action::SetDlDst),
        any::<u32>().prop_map(Action::SetNwSrc),
        any::<u32>().prop_map(Action::SetNwDst),
        any::<u8>().prop_map(Action::SetNwTos),
        any::<u16>().prop_map(Action::SetTpSrc),
        any::<u16>().prop_map(Action::SetTpDst),
        (any::<u16>(), any::<u32>()).prop_map(|(p, q)| Action::Enqueue {
            port: PortNo(p),
            queue_id: q
        }),
    ]
}
