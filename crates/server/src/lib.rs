//! # worlds-server — a multi-tenant speculation-as-a-service front door
//!
//! The paper's kernel speculates for *one* program. This crate makes
//! the same substrate — one shared COW [`PageStore`], one
//! persistent executor, one reaper — serve many mutually-untrusting
//! tenants over the `worlds-net` framed wire:
//!
//! * A tenant `SessionOpen`s a **named session** with a
//!   [`ResourceLimits`] contract (live worlds, resident frames,
//!   virtual-time budget; 0 = unlimited per axis) and gets a private
//!   root world inside the shared store.
//! * `SessionSpawn` forks one speculative world off that root,
//!   applies the tenant's page writes, and charges its declared cost.
//!   Spawns are released through a **deficit round-robin fair
//!   scheduler** keyed by session — a tenant fanning out thousands of
//!   worlds cannot starve a light one — and a full fair queue turns
//!   into `Nack(overloaded)` backpressure, never an unbounded buffer.
//! * `SessionCommit` is the paper's `alt_wait` rendezvous per tenant:
//!   the chosen world is adopted into the session root, every sibling
//!   is handed to the shared reaper, and a second commit without new
//!   spawns is refused — exactly-one-commit.
//! * `SessionFork` opens a **child session** rooted at a fork of the
//!   parent's root (lineage forking); `SessionClose { adopt: true }`
//!   later folds the child's committed state back into the parent
//!   wholesale, `adopt: false` discards it. Closing any session —
//!   gracefully or by a tenant vanishing mid-speculation — releases
//!   every world and frame it owned.
//!
//! [`FrontDoor`] is the serving shape: a [`worlds_net::NetNode`] with
//! the session handler and a telemetry handler answering
//! `worlds-top --sessions` with one live accounting row per session.
//! [`SessionManager`] is the same layer without the listener, for
//! embedding; [`SessionClient`] is the typed tenant side.
//!
//! ```
//! use worlds_server::{FrontDoor, ResourceLimits, ServerPolicy, SessionClient};
//! use worlds_net::RetryPolicy;
//! use worlds_obs::Registry;
//! use worlds_pagestore::PageStore;
//!
//! let door = FrontDoor::serve(
//!     1,
//!     PageStore::new(4096),
//!     Registry::disabled(),
//!     ServerPolicy::default(),
//! )
//! .unwrap();
//! let mut tenant = SessionClient::open(
//!     door.addr(),
//!     "tenant-a",
//!     ResourceLimits { max_live_worlds: 8, ..ResourceLimits::unlimited() },
//!     RetryPolicy::default(),
//!     Registry::disabled(),
//! )
//! .unwrap();
//! let w = tenant.spawn(1_000, vec![(0, b"alt 0".to_vec())]).unwrap();
//! tenant.commit(w).unwrap();
//! tenant.close(false).unwrap();
//! ```

mod client;
mod door;
mod limits;
mod manager;

pub use client::SessionClient;
pub use door::{install, FrontDoor};
pub use limits::{ResourceLimits, ResourceUsage};
pub use manager::{ServerPolicy, ServerTotals, SessionError, SessionManager};

// Re-exported so the doc example above compiles from this crate alone,
// and so embedders drive the wire vocabulary without naming worlds-net.
pub use worlds_net::{nack, Conn, NetError, Request, RetryPolicy};
pub use worlds_pagestore::PageStore;
