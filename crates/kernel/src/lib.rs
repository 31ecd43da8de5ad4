//! # worlds-kernel — a deterministic kernel simulator for Multiple Worlds
//!
//! The paper's mechanism lives inside an operating system: `alt_spawn(n)`
//! creates `n` alternative children with COW page-map inheritance,
//! `alt_wait(TIMEOUT)` blocks the parent until the first successful child
//! rendezvouses (the parent then atomically adopts the child's page map),
//! and losing siblings are eliminated synchronously or asynchronously
//! (§2.2). Its evaluation quantifies the costs on 1989 hardware (§3.4):
//! fork latency, page-copy service rate, elimination cost.
//!
//! We do not have a 3B2/310, an HP 9000/350, or an Ardent Titan — so this
//! crate provides the substitute: a **discrete-event kernel simulator** in
//! virtual time, with
//!
//! * an M-CPU preemptive round-robin [`Machine`],
//! * real COW state via [`worlds_pagestore`] (page faults actually happen
//!   and are charged through the [`CostModel`]),
//! * the `alt_spawn` / `alt_wait` protocol with guard placement options,
//!   timeouts and the failure alternative,
//! * synchronous *and* asynchronous sibling elimination, and
//! * calibrated cost-model presets ([`CostModel::att_3b2`],
//!   [`CostModel::hp9000_350`], [`CostModel::rfork_lan`],
//!   [`CostModel::ardent_titan`]) taken from the numbers in §3.4 and
//!   Table I.
//!
//! The simulator is a client of the primitive: [`SplitKernel`] runs the
//! paper's predicated messages and receiver splitting (§2.4) on
//! [`worlds::ipc`] and [`worlds::predicate`].
//!
//! Because time is virtual, the paper's parallel-speedup *shapes* (who
//! wins, where break-evens fall, sync vs async ordering) reproduce
//! deterministically on any host — including this repository's 1-CPU CI
//! container.
//!
//! ```
//! use worlds_kernel::{AltSpec, BlockSpec, CostModel, Machine, Outcome};
//!
//! let mut machine = Machine::new(CostModel::ardent_titan());
//! let block = BlockSpec::new(vec![
//!     AltSpec::new("slow").compute_ms(400.0),
//!     AltSpec::new("fast").compute_ms(100.0),
//! ]);
//! let report = machine.run_block(&block);
//! assert!(matches!(report.outcome, Outcome::Winner { index: 1, .. }));
//! ```

mod costs;
mod machine;
mod report;
mod spec;
mod split;
mod trace;

pub use costs::CostModel;
pub use machine::Machine;
pub use report::{AltOutcome, AltStatus, Outcome, SimReport};
pub use spec::{AltSpec, BlockSpec, ElimMode, GuardPlacement, Segment};
pub use split::{Delivered, SplitKernel, SplitProcess};
pub use trace::{Trace, TraceEvent};
pub use worlds_obs::VirtualTime;
