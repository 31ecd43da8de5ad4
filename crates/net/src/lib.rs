//! `worlds-net` — a real wire transport for remote fork.
//!
//! §3.4 of the paper implements distributed speculation with `rfork()`:
//! checkpoint the process, ship the image to another machine, restore it
//! there, and later commit the winner's state back. `worlds-remote`
//! models the *costs* of that protocol; this crate supplies the *bytes*:
//! a synchronous, std-only TCP transport that really ships checkpoint
//! images and dirty pages between page stores over loopback sockets —
//! deadlines, retries, corruption and all. Predicated messages (§2.4)
//! are simulated (`worlds-kernel`'s `SplitKernel`), not sent.
//!
//! The stack, bottom to top:
//!
//! * [`crc32`] — the integrity check every frame ends with.
//! * [`Frame`] / [`read_frame`] / [`write_frame`] — the length-prefixed,
//!   versioned, checksummed frame codec (the `frame.rs` source gives the
//!   byte layout).
//! * [`Request`] / [`Reply`] — the RPC vocabulary: `Ping`, `Rfork`
//!   (checkpoint image), `CommitBack` (dirty pages), `Discard`, plus
//!   telemetry and the tenant session family.
//! * [`NetNode`] — the server: one listener per node, handlers on the
//!   shared executor, and a corr-id reply ledger that makes every
//!   operation idempotent under retransmission.
//! * [`Conn`] / [`Pool`] — the client: per-request deadlines, bounded
//!   retries, exponential backoff with deterministic jitter, corr-id
//!   reuse, and pipelined bursts that wait one round trip for many
//!   small-reply requests.
//! * [`FaultSchedule`] / [`FaultProxy`] — deterministic misbehaviour:
//!   drops, delays, truncations, resets and swallowed replies from a
//!   seeded schedule, injected by a real man-in-the-middle relay.
//!
//! The same [`FaultSchedule`] drives the in-process transport in
//! `worlds-remote`, so "every 3rd transfer times out" means the same
//! retry sequence whether the bytes cross a channel or a socket.
//!
//! ```
//! use worlds_net::{Conn, NetNode, Request, Reply, RetryPolicy};
//! use worlds_obs::Registry;
//! use worlds_pagestore::{checkpoint, PageStore};
//!
//! // A "remote node": its own store behind a loopback listener.
//! let node = NetNode::serve(1, PageStore::new(64), Registry::disabled()).unwrap();
//!
//! // rfork: checkpoint here, restore there.
//! let local = PageStore::new(64);
//! let world = local.create_world();
//! local.write(world, 0, 0, b"speculate!").unwrap();
//! let image = checkpoint(&local, world).unwrap();
//!
//! let mut conn = Conn::new(1, node.addr(), RetryPolicy::default(), Registry::disabled());
//! let remote = conn.call_ack(&Request::Rfork { image }).unwrap();
//! let there = worlds_pagestore::WorldId::from_raw(remote);
//! assert_eq!(node.store().read_vec(there, 0, 0, 10).unwrap(), b"speculate!");
//! node.shutdown();
//! ```

mod client;
mod crc;
mod error;
mod fault;
mod frame;
mod image;
mod proxy;
mod rpc;
mod server;

pub use client::{Conn, Pool, RetryPolicy, RforkImage};
pub use crc::crc32;
pub use error::{NetError, Result};
pub use fault::{FaultKind, FaultSchedule};
pub use frame::{
    read_frame, read_frame_idle, write_frame, Frame, FRAME_HEADER, FRAME_MAGIC, FRAME_TRAILER,
    FRAME_VERSION, MAX_PAYLOAD, READ_CHUNK,
};
pub use proxy::{FaultProxy, OpLedger};
pub use rpc::{kind, nack, Reply, Request};
pub use server::{NetNode, SessionHandler, TelemetryHandler};
