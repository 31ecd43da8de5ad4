//! Property-based tests of the message layer: reliability, FIFO order,
//! and the delivery classification's exhaustiveness.

use proptest::prelude::*;
use worlds::ipc::{classify, DeliveryAction, Message, Network};
use worlds::{Pid, PredicateSet};

#[derive(Debug, Clone)]
enum Op {
    Send { from: u64, to: u64, tag: u32 },
    Recv { at: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4, 0u64..4, any::<u32>()).prop_map(|(from, to, tag)| Op::Send { from, to, tag }),
        (0u64..4).prop_map(|at| Op::Recv { at }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Against a shadow queue model: every send is eventually receivable,
    /// nothing is lost, duplicated, or reordered per destination.
    #[test]
    fn network_matches_shadow_queues(ops in proptest::collection::vec(arb_op(), 1..80)) {
        use std::collections::VecDeque;
        let net = Network::new();
        let mut shadow: Vec<VecDeque<(u64, u32)>> = vec![VecDeque::new(); 4];

        for op in &ops {
            match op {
                Op::Send { from, to, tag } => {
                    net.send(Message::new(
                        Pid(*from),
                        Pid(*to),
                        PredicateSet::empty(),
                        tag.to_le_bytes().to_vec(),
                    ));
                    shadow[*to as usize].push_back((*from, *tag));
                }
                Op::Recv { at } => {
                    let got = net.recv(Pid(*at));
                    let want = shadow[*at as usize].pop_front();
                    match (got, want) {
                        (None, None) => {}
                        (Some(m), Some((from, tag))) => {
                            prop_assert_eq!(m.src, Pid(from));
                            prop_assert_eq!(
                                u32::from_le_bytes(m.payload.clone().try_into().unwrap()),
                                tag
                            );
                        }
                        (g, w) => prop_assert!(false, "mismatch: {g:?} vs {w:?}"),
                    }
                }
            }
        }
        // Drain: remaining messages match the shadow exactly, in order.
        for dst in 0..4u64 {
            while let Some((from, tag)) = shadow[dst as usize].pop_front() {
                let m = net.recv(Pid(dst)).expect("message lost");
                prop_assert_eq!(m.src, Pid(from));
                prop_assert_eq!(u32::from_le_bytes(m.payload.try_into().unwrap()), tag);
            }
            prop_assert!(net.recv(Pid(dst)).is_none(), "phantom message");
        }
        prop_assert_eq!(net.total_sent(), net.total_delivered());
    }

    /// duplicate_mailbox preserves both content and order, and the copies
    /// drain independently.
    #[test]
    fn mailbox_duplication_is_faithful(tags in proptest::collection::vec(any::<u32>(), 0..20)) {
        let net = Network::new();
        for t in &tags {
            net.send(Message::new(Pid(1), Pid(2), PredicateSet::empty(), t.to_le_bytes().to_vec()));
        }
        net.duplicate_mailbox(Pid(2), Pid(3));
        // Drain the copy first; the original must be unaffected.
        for t in &tags {
            let m = net.recv(Pid(3)).expect("copy lost a message");
            prop_assert_eq!(u32::from_le_bytes(m.payload.try_into().unwrap()), *t);
            prop_assert_eq!(m.dst, Pid(3), "copies are re-addressed");
        }
        prop_assert!(net.recv(Pid(3)).is_none());
        for t in &tags {
            let m = net.recv(Pid(2)).expect("original lost a message");
            prop_assert_eq!(u32::from_le_bytes(m.payload.try_into().unwrap()), *t);
        }
    }

    /// classify() is total and its action matches first principles
    /// recomputed from raw predicate-set relations.
    #[test]
    fn classification_matches_first_principles(
        r_must in proptest::collection::btree_set(0u64..12, 0..4),
        r_cant in proptest::collection::btree_set(0u64..12, 0..4),
        s_must in proptest::collection::btree_set(0u64..12, 0..4),
        s_cant in proptest::collection::btree_set(0u64..12, 0..4),
        sender in 0u64..12,
    ) {
        prop_assume!(r_must.is_disjoint(&r_cant));
        prop_assume!(s_must.is_disjoint(&s_cant));
        let r = PredicateSet::new(r_must.iter().map(|&x| Pid(x)), r_cant.iter().map(|&x| Pid(x)));
        let s = PredicateSet::new(s_must.iter().map(|&x| Pid(x)), s_cant.iter().map(|&x| Pid(x)));
        let msg = Message::new(Pid(sender), Pid(99), s.clone(), "x");
        let action = classify(&r, &msg);

        let conflict = r.conflicts_with(&s)
            || r.assumes_fails(Pid(sender))
            || s.assumes_fails(Pid(sender));
        let implied = r.implies(&s);
        match action {
            DeliveryAction::Ignore => prop_assert!(conflict),
            DeliveryAction::Deliver => {
                prop_assert!(!conflict);
                prop_assert!(implied);
            }
            DeliveryAction::DeliverExtended { new_set } => {
                prop_assert!(!conflict && !implied);
                prop_assert!(r.assumes_completes(Pid(sender)));
                prop_assert!(new_set.is_consistent());
            }
            DeliveryAction::SplitReceiver { with, without } => {
                prop_assert!(!conflict && !implied);
                prop_assert!(!r.assumes_completes(Pid(sender)));
                prop_assert!(with.is_consistent() && without.is_consistent());
                prop_assert!(with.conflicts_with(&without));
            }
        }
    }
}
