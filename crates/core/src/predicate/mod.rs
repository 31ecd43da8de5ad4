//! Speculation predicates.
//!
//! In "Multiple Worlds" (Smith & Maguire, ICPP 1989 §2.3) every speculative
//! process carries a *predicate*: two lists of process identifiers,
//!
//! * `must_complete` — processes this world assumes **will** synchronize
//!   successfully with their parents, and
//! * `cant_complete` — processes this world assumes **will not**.
//!
//! The lists are built two ways. A child inherits its parent's lists
//! (nesting); and at `alt_spawn` each alternative child additionally assumes
//! *it* completes while its siblings do not — "sibling rivalry taken to its
//! extreme". The paper prefers predicating *processes* over predicating data
//! objects because processes change status far less often than they touch
//! memory.
//!
//! Predicates drive three mechanisms:
//!
//! 1. **Message acceptance** (§2.4.2): a receiver compares its predicate set
//!    `R` with the sending predicate `S` — see [`PredicateSet::compat`],
//!    which returns accept / ignore / split.
//! 2. **World splitting**: when the receiver must make *new* assumptions to
//!    accept, it forks into two copies — one conjoining `complete(sender)`
//!    (which implies all of the sender's assumptions), one conjoining
//!    `¬complete(sender)` — rather than negating each of the sender's
//!    predicates individually (which could demand two mutually exclusive
//!    siblings both complete, a logical impossibility).
//! 3. **Resolution** (§2.4.2): when a process's fate becomes known, the
//!    now-true assumptions are removed from every world's lists and worlds
//!    whose assumptions were falsified are doomed; see
//!    [`PredicateSet::resolve`].
//!
//! A world whose predicate set is non-empty is *unresolved* and must not
//! touch source (non-idempotent) state — enforced by the
//! [`crate::ipc`] device layer.
//!
//! [`PredicateSet::for_spawned_child`] is how a block gives each of its
//! alternatives the sibling-rivalry set; [`Pid`] and [`PredicateSet`]
//! are re-exported at the crate root.

mod compat;
mod pid;
mod registry;
mod set;

pub use compat::Compat;
pub use pid::Pid;
pub use registry::{Fate, FateBoard};
pub use set::{PredicateSet, Resolution};
