//! # `recovery` — recovery blocks over Multiple Worlds (§4.1)
//!
//! A *recovery block* (Randell's software fault-tolerance construct) is
//! "composed of several alternative methods of computing a result; the
//! goal is to emulate the behavior of 'standby-spares' to tolerate faults
//! in software. Since each alternative is guaranteed the same initial
//! state, they can be executed concurrently."
//!
//! Two execution strategies over the same block:
//!
//! * **Sequential** (classical): run the primary in a speculative world;
//!   if the acceptance test rejects, *discard the world* (state
//!   restoration for free, courtesy of COW) and try the next alternate.
//! * **Parallel** (the paper's contribution): run every alternate
//!   concurrently in sibling worlds; the first to pass the acceptance
//!   test commits. Failures of slow/faulty alternates cost no response
//!   time because a spare is already running — "there is no execution
//!   time penalty paid for recovery" (§5).
//!
//! [`FaultPlan`] provides deterministic and probabilistic fault injection
//! so tests and benches can script which alternates fail.

mod block;
mod fault;

pub use block::{RecoveryBlock, RecoveryOutcome, RecoveryReport};
pub use fault::FaultPlan;
