//! # `os` — real `fork(2)` Multiple Worlds (Unix only)
//!
//! The paper's prototype *is* UNIX `fork()`: each alternative runs in a
//! forked child whose entire address space is inherited copy-on-write from
//! the parent — the kernel's MMU provides the "Multiple Worlds" isolation
//! for free, and §3.4's measurements (31 ms forks on the 3B2, 12 ms on the
//! HP 9000/350, 40/20 ms sync/async elimination of 16 children) are of
//! exactly this path.
//!
//! This module reproduces that prototype on modern Unix:
//!
//! * [`ForkRace`] — run alternatives as real forked processes; the first
//!   child to write a result through the shared pipe wins (`PIPE_BUF`
//!   atomicity makes the rendezvous race-free); siblings are eliminated
//!   with `SIGKILL`, synchronously (wait for termination) or
//!   asynchronously.
//! * [`measure`] — §3.4's measurement kit: fork latency vs. dirty
//!   address-space size, COW page-copy service rate, and sync vs. async
//!   elimination cost for N children.
//!
//! ## Fork safety (the "multithread-fork care" this backend needs)
//!
//! After `fork()` in a multithreaded process only the calling thread
//! exists in the child; any lock held by another thread (notably the
//! allocator's) is left locked forever. Child-side code here therefore
//! allocates **nothing**: result buffers are preallocated before the
//! fork, and the child path uses only async-signal-safe calls (`write`,
//! `clock_gettime`, `_exit`). User closures run in the child and must
//! follow the same rule when the embedding process is multithreaded —
//! write into the provided buffer, do not allocate, do not lock.

pub mod measure;
mod race;

pub use race::{ForkAlt, ForkElim, ForkOutcome, ForkRace, ForkReport};
