//! # worlds-exec — the execution substrate for speculative worlds
//!
//! The paper's economics (§3–4) only work if speculation is cheap: fork
//! a world, run the alternative, and — for the losers — get out of the
//! way. The original thread executor paid an OS `thread::spawn` per
//! alternative per block and a per-frame recycler lock per eliminated
//! world. This crate replaces both:
//!
//! * [`Executor`] — a persistent pool shared by every `Speculation`
//!   session: one FIFO queue and one kind of worker behind one mutex.
//!   Submission reserves a free worker or adds one, so arbitrary blocking
//!   tasks — including nested speculation — can never starve queued work.
//!   A submission into an empty queue wakes the most recently parked
//!   worker, and a worker that pops a task with more behind it wakes the
//!   next one, so a submitter pays for one wake-up per burst; no queued
//!   task is stranded, because some free worker off the parked stack
//!   always looks at a non-empty queue before it parks. An added worker
//!   is reused while traffic needs it and retires when it does not. A
//!   task submitted with a tag can be taken back ([`Executor::take`])
//!   until a worker starts it: a speculation block runs or drops its own
//!   queued alternatives instead of waiting for a worker (see the `pool`
//!   module docs for the invariants).
//! * [`Scope`] — scoped submission: tasks that borrow the caller's
//!   frame, sound because `Executor::scope` joins them before returning.
//! * [`Reaper`] — batched asynchronous elimination: losing worlds queue
//!   up and a background thread tears them down in batches, one
//!   `Recycler` lock acquisition per batch instead of per frame, while
//!   emitting exactly the per-world `frame_free` events a sequential
//!   teardown would. The queue is bounded: past it, an enqueuer tears its
//!   own losers down.
//! * [`FairScheduler`] — per-tenant deficit round-robin admission in
//!   front of the pool's queue, with bounded queues (backpressure) and a
//!   global in-flight cap, so many tenants can share one pool without
//!   any of them starving the rest (see the `fair` module docs).

mod fair;
mod pool;
mod reaper;

pub use fair::{FairPolicy, FairScheduler, Saturated, TenantStats};
pub use pool::{Executor, Scope};
pub use reaper::Reaper;
