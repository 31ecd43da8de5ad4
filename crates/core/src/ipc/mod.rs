//! Predicated interprocess communication.
//!
//! §2.1 of the paper fixes the system model: "Interprocess communication is
//! accomplished solely through passing messages", reliable (no loss, no
//! duplication) and FIFO. §2.4 adds the Multiple-Worlds twist: every message
//! carries a **sending predicate** describing the assumptions under which it
//! was sent, and receipt is filtered through the receiver's own predicate
//! set:
//!
//! * assumptions agree (`S ⊆ R`) → accept immediately;
//! * assumptions conflict (`p ∈ S`, `¬p ∈ R`) → ignore the message;
//! * new assumptions needed → **split the receiver into two worlds**, one
//!   accepting under `complete(sender)`, one rejecting under
//!   `¬complete(sender)`.
//!
//! This module provides:
//!
//! * [`Message`] — the paper's three-part structure (sending predicate,
//!   data, control information);
//! * [`Network`] — a reliable-FIFO transport between [`Pid`](crate::Pid)s;
//! * [`classify`] / [`DeliveryAction`] — the acceptance decision, ready for
//!   a kernel to act on (the kernel owns process duplication, this layer
//!   owns the decision and the mailbox mechanics);
//! * [`Teletype`] / [`BufferedSource`] — *source* (non-idempotent) devices:
//!   a world with unresolved predicates "is restricted from causing
//!   observable side-effects, and thus cannot interface with sources"
//!   (§2.4.2); the buffered wrapper implements Jefferson-style deferral, the
//!   paper's nod to Time Warp's `stdout` process (§5).
//!
//! A [`crate::Speculation`] owns a [`Teletype`]; the simulator's
//! `SplitKernel` (in `worlds-kernel`) drives [`Network`] and
//! [`classify_observed`] to split receivers. Predicates come from
//! [`crate::predicate`].

mod channel;
mod device;
mod message;
mod router;

pub use channel::{Mailbox, Network};
pub use device::{BufferedSource, DeviceError, SourceDevice, Teletype};
pub use message::{Message, MsgId};
pub use router::{classify, classify_observed, DeliveryAction};
