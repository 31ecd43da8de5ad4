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
//! * [`predicate`] — the paper's speculation predicates (§2.3): every
//!   alternative runs under a sibling-rivalry [`PredicateSet`], and
//!   [`predicate::PredicateSet::compat`] decides whether a message is
//!   accepted, ignored or splits its receiver.
//! * [`ipc`] — predicated messages (§2.4) and source devices: the
//!   session's [`ipc::Teletype`] is what buffered output reaches when a
//!   block commits.
//!
//! The virtual-time simulator, `worlds-kernel`, is a client of this
//! crate: its `SplitKernel` runs predicated IPC with receiver splitting
//! on [`ipc`] and [`predicate`], and its `Machine` regenerates the
//! paper's figures. [`sim`] keeps only the virtual clock.

mod alternative;
mod block;
mod ctx;
mod error;
pub mod ipc;
pub mod predicate;
mod report;
mod speculation;
mod word;

pub use alternative::{AltResult, Alternative};
pub use block::{AltBlock, ElimMode};
pub use ctx::WorldCtx;
pub use error::AltError;
pub use predicate::{Pid, PredicateSet};
pub use report::{AltRun, AltRunStatus, RunOutcome, RunReport};
pub use speculation::Speculation;
pub use worlds_exec::{Executor, Reaper};

pub use worlds_pagestore::{StoreStats, WorldId};

/// The virtual clock, for code that names it by this path. The simulator
/// itself is the `worlds-kernel` crate, which depends on this one.
pub mod sim {
    pub use worlds_obs::VirtualTime;
}
