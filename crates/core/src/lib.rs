//! # worlds — committed-choice speculative execution
//!
//! This crate is the public face of the *Multiple Worlds* system (Smith &
//! Maguire, "Exploring 'Multiple Worlds' in Parallel", ICPP 1989): given
//! several **alternative methods** of computing a result, each with a
//! *guard* condition, run them **in parallel in isolated worlds** and commit
//! **at most one** — the first to synchronize with a passing guard — while
//! everything else (state changes, message sends, teletype output) from the
//! losing alternatives is discarded as if it never happened.
//!
//! The observable semantics are exactly those of a nondeterministic
//! *sequential* choice among the alternatives; the parallel execution is a
//! pure response-time optimisation whose expected win is
//! `PI = τ(C_mean) / (τ(C_best) + τ(overhead))` (§3 of the paper; see the
//! `worlds-analysis` crate).
//!
//! ## Quick start
//!
//! ```
//! use worlds::{AltBlock, Speculation};
//!
//! let spec = Speculation::new();
//! spec.setup(|ctx| ctx.put_u64("base", 40)).unwrap();
//!
//! let report = spec.run(
//!     AltBlock::new()
//!         .alt("add", |ctx| {
//!             let b = ctx.get_u64("base").unwrap();
//!             ctx.put_u64("result", b + 2)?;
//!             Ok(b + 2)
//!         })
//!         .alt("mul", |ctx| {
//!             let b = ctx.get_u64("base").unwrap();
//!             ctx.put_u64("result", b * 2)?;
//!             Ok(b * 2)
//!         }),
//! );
//!
//! assert!(report.value.is_some());            // exactly one method won…
//! let committed = spec.read(|ctx| ctx.get_u64("result")).unwrap();
//! assert_eq!(committed, report.value.unwrap()); // …and only its state committed
//! ```
//!
//! ## Pieces
//!
//! * [`Speculation`] — a session owning the COW page store, the file-backed
//!   named state cells, and the teletype; blocks run against it in
//!   sequence, each committing the winner's world.
//! * [`AltBlock`] — the block builder: alternatives, guards, timeout,
//!   elimination mode.
//! * [`WorldCtx`] — what an alternative sees: its private speculative
//!   state, deferred (buffered) teletype output, and cooperative
//!   cancellation.
//! * [`RunReport`] — who won, how long everything took, and how many pages
//!   speculation actually copied.
//! * [`sim`] — re-export of the `worlds-kernel` virtual-time simulator for
//!   cost-model experiments (the paper's figures are generated there).

mod alternative;
mod block;
mod ctx;
mod error;
mod report;
mod speculation;
mod word;

pub use alternative::{AltResult, Alternative};
pub use block::{AltBlock, ElimMode};
pub use ctx::WorldCtx;
pub use error::AltError;
pub use report::{AltRun, AltRunStatus, RunOutcome, RunReport};
pub use speculation::{ExecMode, Speculation};
pub use worlds_exec::{Executor, Reaper};

pub use worlds_pagestore::{StoreStats, WorldId};
pub use worlds_predicate::{Pid, PredicateSet};

/// Virtual-time simulation layer (re-export of `worlds-kernel`).
pub mod sim {
    pub use worlds_kernel::{
        AltSpec, BlockSpec, CostModel, ElimMode as SimElimMode, GuardPlacement, Machine, Outcome,
        Segment, SimReport, SplitKernel, VirtualTime,
    };
}
