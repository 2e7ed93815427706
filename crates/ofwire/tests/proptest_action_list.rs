//! Property tests for [`ActionList`], the by-value owned action list:
//! it behaves as the `Vec<Action>` it replaced however it is built, on
//! both sides of the inline/spill boundary, and the decoder that fills
//! it accepts and rejects exactly what the non-collecting check does.

use ofwire::prelude::*;
use proptest::prelude::*;

mod strategies;
use strategies::arb_action;

/// Zero to five actions: both inline sizes, the boundary, and spills.
fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(arb_action(), 0..6)
}

fn encoded(actions: &[Action]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for a in actions {
        a.encode(&mut bytes);
    }
    bytes
}

/// Action-list bytes: pure noise, well-formed lists, and well-formed
/// lists with one byte overwritten or the tail cut off.
fn arb_list_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64),
        arb_actions().prop_map(|a| encoded(&a)),
        (arb_actions(), any::<usize>(), any::<u8>()).prop_map(|(a, at, v)| {
            let mut bytes = encoded(&a);
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] = v;
            }
            bytes
        }),
        (arb_actions(), any::<usize>()).prop_map(|(a, keep)| {
            let mut bytes = encoded(&a);
            bytes.truncate(keep % (bytes.len() + 1));
            bytes
        }),
    ]
}

#[test]
fn carriers_are_no_larger_than_with_a_vec() {
    use std::mem::size_of;
    assert!(size_of::<ActionList>() <= size_of::<Vec<Action>>());
    assert!(size_of::<ActionList>() <= 24);
    assert!(size_of::<FlowMod>() <= 112);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Built by `from`, by `collect` of every prefix, a list reads as the
    /// vector it came from, and two lists compare as their vectors do.
    #[test]
    fn behaves_as_the_vec_it_models(model in arb_actions(), other in arb_actions()) {
        let from = ActionList::from(model.clone());
        for i in 0..model.len() {
            let prefix: ActionList = model[..i].iter().copied().collect();
            prop_assert_eq!(&prefix[..], &model[..i]);
        }
        let collected: ActionList = model.iter().copied().collect();
        for list in [&from, &collected, &from.clone()] {
            prop_assert_eq!(&list[..], &model[..]);
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.first(), model.first());
            prop_assert_eq!(list.iter().count(), model.len());
            prop_assert!(*list == model);
            prop_assert_eq!(list, &from);
            prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
            prop_assert_eq!(Action::list_len(list), Action::list_len(&model));
        }
        let theirs = ActionList::from(other.clone());
        prop_assert_eq!(from == theirs, model == other);
        prop_assert_eq!(from == other, model == other);
        if let Some(&one) = model.first() {
            prop_assert_eq!(&ActionList::from(one)[..], &model[..1]);
        }
        prop_assert!(ActionList::default().is_empty());
    }

    #[test]
    fn encode_then_decode_list_round_trips(model in arb_actions(), tail in 0usize..9) {
        let mut bytes = encoded(&model);
        let len = bytes.len();
        prop_assert_eq!(len, Action::list_len(&model));
        // Bytes past `len` are the next field's, not the list's.
        bytes.extend(std::iter::repeat_n(0xa5, tail));
        let (back, used) = Action::decode_list(&bytes, len).unwrap();
        prop_assert_eq!(used, len);
        prop_assert!(back == model);
        prop_assert_eq!(Action::check_list(&bytes, len), Ok(len));
    }

    #[test]
    fn decode_list_and_check_list_agree(bytes in arb_list_bytes(), short in 0usize..9, over in 0usize..9) {
        for len in [bytes.len(), bytes.len().saturating_sub(short), bytes.len() + over] {
            match (Action::decode_list(&bytes, len), Action::check_list(&bytes, len)) {
                (Ok((list, used)), Ok(checked)) => {
                    prop_assert_eq!(used, checked);
                    prop_assert_eq!(used, len);
                    prop_assert_eq!(Action::list_len(&list), len);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (decoded, checked) => {
                    prop_assert!(false, "decode_list {decoded:?} but check_list {checked:?}")
                }
            }
        }
    }
}
