//! # worlds-pagestore — the single-level store substrate
//!
//! Smith & Maguire's "Multiple Worlds" scheme (ICPP 1989) manages all *sink*
//! (idempotent) state as fixed-size pages behind a single-level store: "we
//! bury the entire memory hierarchy under the page abstraction; files are
//! named sets of pages" (§2.1). Speculative alternatives inherit the parent's
//! page map and share pages **copy-on-write**, so the state preserved per
//! world is proportional to the pages the world actually writes — the paper's
//! observed *write fraction* of 0.2–0.5 is what makes speculation affordable
//! (§2.3, §3.4).
//!
//! This crate is a faithful user-level implementation of that contract:
//!
//! * [`PageStore`] owns a reference-counted **frame table** (physical pages).
//! * Each **world** ([`WorldId`]) owns a **page map** ([`PageMap`]) from
//!   virtual page numbers to frames: a small directory over structurally
//!   shared leaves.
//! * [`PageStore::fork_world`] duplicates only the map's directory (page-map
//!   inheritance) — its cost does not follow the number of mapped pages; the
//!   first write to a shared page triggers a COW fault that copies exactly
//!   one page (and, at most, one leaf of the map).
//! * [`PageStore::adopt`] atomically replaces a parent world's page map with
//!   a child's — the commit operation `alt_wait` performs when an alternative
//!   wins (§2.2: "the parent process absorbs the state changes made by its
//!   child by atomically replacing its page pointer with that of the child").
//! * [`StoreStats`] exposes the fault/copy counters the paper's §3.4
//!   measurements are phrased in (pages copied per second, write fraction).
//!
//! The store is thread-safe and built to scale with worlds: the world table
//! is split across [`NUM_SHARDS`] independently locked shards (two worlds in
//! different shards never contend), frames carry atomic refcounts, and a COW
//! fault stages its page copy with **no locks held**, committing under one
//! shard's write lock only. See the `store` module docs for the full
//! concurrency model.
//!
//! ```
//! use worlds_pagestore::{PageStore, PAGE_SIZE_DEFAULT};
//!
//! let store = PageStore::new(PAGE_SIZE_DEFAULT);
//! let parent = store.create_world();
//! store.write(parent, 0, 0, b"shared state").unwrap();
//!
//! // Speculative child: shares every page until it writes.
//! let child = store.fork_world(parent).unwrap();
//! assert_eq!(store.read_vec(child, 0, 0, 12).unwrap(), b"shared state");
//! store.write(child, 0, 0, b"child  state").unwrap(); // COW fault: 1 page copied
//!
//! // Parent is unaffected until the child is committed.
//! assert_eq!(store.read_vec(parent, 0, 0, 12).unwrap(), b"shared state");
//! store.adopt(parent, child).unwrap(); // alt_wait rendezvous
//! assert_eq!(store.read_vec(parent, 0, 0, 12).unwrap(), b"child  state");
//! ```

pub mod checkpoint;
mod content;
mod cursor;
mod error;
mod file;
mod frame;
mod map;
mod page;
mod stats;
mod store;

pub use checkpoint::{
    checkpoint, checkpoint_content, checkpoint_delta, delta_manifest, describe, describe_delta,
    restore, ImageDesc, ReceivedImage, IMAGE_HEADER,
};
pub use content::page_hash;
pub use cursor::Cursor;
pub use error::{PageStoreError, Result};
pub use file::{FileHandle, FileSystem};
pub use frame::FrameId;
pub use map::PageMap;
pub use page::{PageData, Vpn, PAGE_SIZE_2K, PAGE_SIZE_4K, PAGE_SIZE_DEFAULT};
pub use stats::{ResidentFrames, StoreStats, WorldStats};
pub use store::{PageStore, WorldId, NUM_SHARDS};
