//! Delivery classification: what the kernel must do with a message.

use super::message::Message;
use crate::predicate::{Compat, PredicateSet};

/// The action the process-management layer must take for one message
/// arriving at a receiver with a given predicate set (§2.4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryAction {
    /// Deliver the message; the receiver's predicates are unchanged.
    Deliver,
    /// Deliver the message; the receiver's predicates grow to `new_set`
    /// (it had already assumed the sender completes, so it adopts the
    /// sender's remaining assumptions without splitting).
    DeliverExtended {
        /// The receiver's predicate set after adopting the sender's
        /// assumptions.
        new_set: PredicateSet,
    },
    /// Drop the message: the sender's world is incompatible with the
    /// receiver's.
    Ignore,
    /// Duplicate the receiver: one copy (predicates `with`) accepts the
    /// message, the other (predicates `without`) does not. The kernel owns
    /// the actual process/world duplication (COW fork + mailbox copy).
    SplitReceiver {
        /// Predicates of the copy that accepts the message.
        with: PredicateSet,
        /// Predicates of the copy that rejects it.
        without: PredicateSet,
    },
}

/// Classify `msg` against the receiving world's predicate set.
pub fn classify(receiver: &PredicateSet, msg: &Message) -> DeliveryAction {
    match receiver.compat(msg.src, &msg.predicate) {
        Compat::Accept => DeliveryAction::Deliver,
        Compat::AcceptExtend(new_set) => DeliveryAction::DeliverExtended { new_set },
        Compat::Ignore => DeliveryAction::Ignore,
        Compat::Split { with, without } => DeliveryAction::SplitReceiver { with, without },
    }
}

/// [`classify`], reported to an observability registry: the decision is
/// emitted as a `MsgAccept` / `MsgExtend` / `MsgIgnore` / `MsgSplit`
/// event stamped with the receiving world and the caller's virtual
/// time. When the message carries a [`worlds_obs::TraceCtx`], the event's
/// `parent` field names the *sending* world — the causal edge the span
/// layer draws as a flow arrow (for routing events, `parent` is a causal
/// link, never a speculation-tree edge). `classify` itself stays pure;
/// kernels that route predicated messages call this wrapper.
pub fn classify_observed(
    receiver: &PredicateSet,
    msg: &Message,
    obs: &worlds_obs::Registry,
    world: u64,
    vt_ns: u64,
) -> DeliveryAction {
    let action = classify(receiver, msg);
    obs.emit(|| {
        let kind = match &action {
            DeliveryAction::Deliver => worlds_obs::EventKind::MsgAccept,
            DeliveryAction::DeliverExtended { .. } => worlds_obs::EventKind::MsgExtend,
            DeliveryAction::Ignore => worlds_obs::EventKind::MsgIgnore,
            DeliveryAction::SplitReceiver { .. } => worlds_obs::EventKind::MsgSplit,
        };
        let sender = msg.trace.as_ref().map(|t| t.world).filter(|&s| s != world);
        worlds_obs::Event::new(kind, world, sender, vt_ns)
    });
    action
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Pid;

    fn p(n: u64) -> Pid {
        Pid(n)
    }

    #[test]
    fn deliver_when_receiver_knows_sender_world() {
        let s_set = PredicateSet::new([p(10)], [p(11)]);
        let msg = Message::new(p(10), p(1), s_set, "x");
        let r = PredicateSet::new([p(10)], [p(11)]);
        assert_eq!(classify(&r, &msg), DeliveryAction::Deliver);
    }

    #[test]
    fn ignore_rival_world_message() {
        let s_set = PredicateSet::new([p(10)], [p(11)]);
        let msg = Message::new(p(10), p(1), s_set, "x");
        let r = PredicateSet::new([p(11)], [p(10)]);
        assert_eq!(classify(&r, &msg), DeliveryAction::Ignore);
    }

    #[test]
    fn split_on_novel_assumptions() {
        let s_set = PredicateSet::new([p(10)], []);
        let msg = Message::new(p(10), p(1), s_set, "x");
        let r = PredicateSet::empty();
        match classify(&r, &msg) {
            DeliveryAction::SplitReceiver { with, without } => {
                assert!(with.assumes_completes(p(10)));
                assert!(without.assumes_fails(p(10)));
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn extend_when_completion_already_assumed() {
        let s_set = PredicateSet::new([p(10), p(7)], []);
        let msg = Message::new(p(10), p(1), s_set, "x");
        let r = PredicateSet::new([p(10)], []);
        match classify(&r, &msg) {
            DeliveryAction::DeliverExtended { new_set } => {
                assert!(new_set.assumes_completes(p(7)));
            }
            other => panic!("expected extend, got {other:?}"),
        }
    }
}
