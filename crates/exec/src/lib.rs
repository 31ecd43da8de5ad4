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
//!   tasks — including nested speculation — can never starve queued work;
//!   it wakes the most recently parked worker, so an added worker is
//!   reused while traffic needs it and retires when it does not (see the
//!   `pool` module docs for the invariant).
//! * [`Scope`] — scoped submission: tasks that borrow the caller's
//!   frame, sound because `Executor::scope` joins them before returning.
//! * [`Latch`] / [`CountsDown`] — the countdown latch `scope` joins on,
//!   exported so `Speculation`'s synchronous elimination waits on the
//!   same one.
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
pub use pool::{CountsDown, Executor, Latch, Scope, WORKERS_ENV};
pub use reaper::Reaper;
