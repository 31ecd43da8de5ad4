//! The three-part message structure of §2.4.1.

use worlds_obs::TraceCtx;

use crate::predicate::{Pid, PredicateSet};

/// Per-network unique message identifier (also the global send order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

/// A message from `src` to `dst`.
///
/// "A message from Pm to Pj has the following three part structure: (1) a
/// sending predicate, encapsulating the assumptions under which the sender
/// sends the message; (2) the data comprising the message contents; (3) some
/// control information, e.g., sender id, destination id" (§2.4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Unique id / global send-order stamp (control information).
    pub id: MsgId,
    /// Sender process id (control information).
    pub src: Pid,
    /// Destination process id (control information).
    pub dst: Pid,
    /// The sending predicate: the sender's assumptions at send time.
    pub predicate: PredicateSet,
    /// The message contents.
    pub payload: Vec<u8>,
    /// Trace context: which run and which *world* sent this message.
    /// Pure observability — routing never reads it. When present, the
    /// receiver's routing events carry the sender world as their causal
    /// parent, so message-induced splits join the sender's span tree
    /// instead of appearing as orphan roots.
    pub trace: Option<TraceCtx>,
}

impl Message {
    /// Build a message; the network stamps `id` at send time, so it starts
    /// as `MsgId(0)` here.
    pub fn new(src: Pid, dst: Pid, predicate: PredicateSet, payload: impl Into<Vec<u8>>) -> Self {
        Message {
            id: MsgId(0),
            src,
            dst,
            predicate,
            payload: payload.into(),
            trace: None,
        }
    }

    /// Attach a trace context (builder style).
    pub fn with_trace(mut self, ctx: TraceCtx) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Payload interpreted as UTF-8, for diagnostics and tests.
    pub fn payload_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_payload_access() {
        let m = Message::new(Pid(1), Pid(2), PredicateSet::empty(), "hi");
        assert_eq!(m.src, Pid(1));
        assert_eq!(m.dst, Pid(2));
        assert_eq!(m.payload_str(), Some("hi"));
        assert_eq!(m.id, MsgId(0));
    }

    #[test]
    fn binary_payload_is_not_str() {
        let m = Message::new(Pid(1), Pid(2), PredicateSet::empty(), vec![0xFF, 0xFE]);
        assert_eq!(m.payload_str(), None);
        assert_eq!(m.payload, vec![0xFF, 0xFE]);
    }
}
