//! # worlds-remote — the distributed case (§2.2, §3.4)
//!
//! The paper's mechanism extends across machines: "In the distributed case
//! we must actually copy state for a remote child so that the child can
//! read or write locally" (§3.1), and §3.4 reports the measured costs of
//! the Smith & Ioannidis `rfork()` — ≈ 1 s to checkpoint and ship a 70 KB
//! process over a 1989 LAN, ≈ 1.3 s observed end to end, with commits
//! copying changed pages back.
//!
//! This crate builds that substrate over the repository's own pieces:
//!
//! * a [`Cluster`] of [`Node`]s, each owning an independent page store
//!   (its "physical memory");
//! * [`Cluster::rfork`] — remote fork by **checkpoint/restore**
//!   (`worlds_pagestore::checkpoint`), exactly the paper's construction
//!   ("the state of the process was dumped into a file ... a
//!   bootstrapping routine restores \[it\]");
//! * a [`NetModel`] charging latency + size/bandwidth for every transfer,
//!   in virtual time — calibrated so the paper's 70 KB process costs ≈ 1 s
//!   to ship on the `lan_1989` preset;
//! * [`run_distributed_block`] — a whole alternative block executed
//!   remotely: place the alternatives round-robin over the non-origin
//!   nodes, rfork once per node and fork that node's further
//!   alternatives from its first replica there, run, ship the winner's
//!   **dirty pages only** back and commit them into the origin world,
//!   discard the replicas. The dirty set is
//!   content-based — the pages whose bytes differ from the origin's —
//!   and [`Cluster::commit_back`] finds it by comparing only the pages a
//!   pinned delta base says may differ. A block that fails still
//!   discards every replica it shipped.
//!
//! Everything is deterministic virtual time; the state motion is real
//! (bytes actually travel between stores through checkpoint images).

mod cluster;
mod net;
mod run;
mod transport;

pub use cluster::{Cluster, Node, NodeId, RemoteWorld};
pub use net::NetModel;
pub use run::{run_distributed_block, DistAlt, DistOutcome, DistReport};
pub use transport::{InProcess, Tcp, Transport};
pub use worlds_net::{FaultKind, FaultSchedule};
