//! The page store: worlds, COW faults, fork and adopt.
//!
//! # Concurrency model
//!
//! The store has no store-wide lock. State is split between:
//!
//! * **A sharded world table.** Worlds hash by id into [`NUM_SHARDS`]
//!   shards, each behind its own `RwLock`. Two worlds in different shards
//!   never block each other; ids are assigned round-robin so sibling
//!   alternatives land in different shards.
//! * **Structurally shared page maps** ([`PageMap`]): a per-world
//!   directory over `Arc`-shared leaves. `fork_world` clones the directory
//!   and bumps one count per leaf; `adopt` swaps the map; `drop_world`
//!   lets go of each leaf. None of them visits a page the world inherited
//!   and never wrote.
//! * **A concurrent frame table** ([`FrameTable`]) with atomic refcounts,
//!   `Arc`-shared page contents, and a bounded recycle pool. Frame
//!   operations are individually atomic; shard locks decide when they are
//!   *allowed*.
//!
//! # The reference contract
//!
//! A leaf's `Arc` count is the number of page maps holding it. A frame's
//! `refs` is the number of *leaf slots* naming it — so a page four worlds
//! inherited through one leaf has `refs == 1`. A page is **private** to a
//! world, and writable in place, only when *both* links of its path are
//! exclusive: the world is its leaf's only holder *and* `refs == 1`.
//! Anything else is **shared** and a write must copy. Writing to a page
//! under a shared leaf path-copies the leaf: the copy takes one reference
//! on every other frame it duplicates, then lets go of the old leaf.
//! Whoever lets go of a leaf *last* (`Arc::into_inner`: exactly one
//! releaser, even when holders in different shards let go at once) drops
//! the leaf's slot references; frames that reach zero are detached on the
//! spot and returned to the recycler in one batch per call.
//!
//! **Invariant:** whenever all shard locks are quiescent, every leaf's
//! count equals the number of live maps holding it, every live frame's
//! `refs` equals the number of distinct live leaf slots naming it, and
//! every content-index entry names a mapped frame;
//! [`PageStore::verify_refcounts`] checks exactly this. All count traffic
//! therefore happens under the shard write lock of the world whose map
//! gains or loses the leaf or slot. Three rules keep it so:
//!
//! 1. **A leaf shared across shards may be released concurrently.**
//!    Releases are not ordered by any lock; `Arc::into_inner` picks the one
//!    releaser that drops the slot references, and a path-copier takes its
//!    duplicate references while still holding the old leaf, so no frame a
//!    live leaf names ever reads zero.
//! 2. **Accounting is per world, not per leaf.** A frame is freed exactly
//!    when the last world mapping it lets go, so `FrameFree`, `CowCopy`,
//!    `ZeroFill` and `FrameDedup` events and every counter read as they
//!    would with one flat map per world; `pages_inherited` is the map's
//!    slot count at fork.
//! 3. **Dedupe takes one frame reference per slot it fills**, handed to
//!    the map with the slot like a freshly allocated frame's.
//!
//! # Writes
//!
//! A write is one critical section under the world's shard *write* lock:
//! a private page is written in place; anything else is copied (or zero
//! filled) into a pooled buffer and installed, and what that displaced is
//! settled. Nothing is revalidated because nothing can move underneath: a
//! second holder of an exclusive leaf, or a second slot for a frame only
//! that leaf names, can only come from forking *this* world, which needs
//! this lock; and a shared page's bytes are stable because no sharer can
//! see it as private while this world holds its path to it. Counters and
//! events follow after the unlock.
//!
//! Elimination also has a batched form, [`PageStore::drop_worlds`]:
//! frames freed anywhere in the batch are detached under their shard
//! locks but returned to the recycler under a *single* acquisition, which
//! is what makes asynchronous elimination cheap for a background reaper.
//! Counters and `FrameFree` events are identical — content and order — to
//! sequential [`PageStore::drop_world`] calls.
//!
//! Lock hierarchy: shard locks first (in ascending shard-index order when
//! taking more than one), then frame-table internal locks (per-slot
//! mutexes and the single recycler mutex guarding the free list + buffer
//! pool together). The frame-table locks are leaves: none is ever held
//! while acquiring a shard lock or another frame-table lock.
//!
//! # Content addressing (opt-in)
//!
//! With [`PageStore::set_dedupe`] enabled, frames are *sealed* into a
//! content index at commit points — a CoW or zero-fill install and a
//! full-page in-place write. A later commit whose resulting bytes match
//! an indexed frame re-shares that frame (rule 3) instead of installing
//! the copy. The index is the store's own: nothing on the wire reads it
//! (a delta rfork ships its changed pages inline). Three rules keep this
//! sound:
//!
//! * **Hashes are hints.** A probe byte-compares the candidate's full
//!   page under the frame's data mutex before taking a reference; a
//!   forced hash collision can never share wrong bytes.
//! * **Probes run under the writer's exclusive shard lock**, so the
//!   cross-world incref is invisible to [`PageStore::verify_refcounts`]
//!   (which holds every shard lock).
//! * **A probe can raise a frame's count without forking its owner**,
//!   so `write_if_private` re-checks `refs == 1` under the data mutex: a
//!   write racing a verified probe backs off into a CoW.
//!
//! Index entries are retracted eagerly: an in-place write or a frame
//! free clears the frame's entry (via its `content_hash` back-pointer)
//! before anyone can observe stale bytes through it. A miss on the
//! non-dedupe path costs nothing; a miss with dedupe on costs one page
//! hash plus one failed index probe (budgeted in `bench-baseline`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use worlds_obs::{Event, EventKind, Registry};

use crate::content::page_hash;
use crate::error::{PageStoreError, Result};
use crate::frame::{FrameId, FrameTable};
use crate::map::{Displaced, Leaf, PageMap};
use crate::page::{PageData, Vpn};
use crate::stats::{ResidentFrames, StatsInner, StoreStats, WorldStats};

/// Number of world-table shards. A power of two so `id & (NUM_SHARDS - 1)`
/// is the shard index; monotonically assigned ids then spread round-robin.
pub const NUM_SHARDS: usize = 32;

#[inline]
fn shard_index(id: u64) -> usize {
    (id as usize) & (NUM_SHARDS - 1)
}

/// Multiply-shift hasher for world-id keys. Ids are small and sequential;
/// the default SipHash buys no collision resistance worth its ~20 ns on
/// the write fast path.
#[derive(Debug, Default, Clone)]
struct WorldIdHasher(u64);

impl std::hash::Hasher for WorldIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("world ids hash via write_u64");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type WorldTable<V> = HashMap<u64, V, std::hash::BuildHasherDefault<WorldIdHasher>>;

/// Identifier of a world (a speculative address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorldId(pub(crate) u64);

impl WorldId {
    /// Raw id, for diagnostics.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstitute an id previously obtained from [`WorldId::raw`] —
    /// for transports that ship world ids over a wire (cluster stores
    /// share one id allocator, see [`PageStore::new_sharing_ids`]). The
    /// store validates liveness on every operation, so a stale or
    /// foreign id surfaces as `NoSuchWorld`, never as aliasing.
    pub fn from_raw(raw: u64) -> WorldId {
        WorldId(raw)
    }
}

/// A world's place in the fork tree: its id and its parent's node. Every
/// descendant's chain runs through it, so it outlives the world for
/// exactly as long as something below it is alive — which is what lets
/// `adopt` verify descent through eliminated intermediates without the
/// store remembering every world it ever forked.
#[derive(Debug)]
struct Lineage {
    id: u64,
    parent: Option<Arc<Lineage>>,
}

impl Lineage {
    fn descends_from(&self, ancestor: u64) -> bool {
        let mut cur = self.parent.as_deref();
        while let Some(node) = cur {
            if node.id == ancestor {
                return true;
            }
            cur = node.parent.as_deref();
        }
        false
    }
}

impl Drop for Lineage {
    /// Unlink the chain iteratively: the default recursive drop would use
    /// one stack frame per dead ancestor this node was the last to hold.
    fn drop(&mut self) {
        let mut next = self.parent.take();
        while let Some(mut node) = next.and_then(Arc::into_inner) {
            next = node.parent.take();
        }
    }
}

#[derive(Debug)]
struct World {
    map: PageMap,
    lineage: Arc<Lineage>,
    stats: WorldStats,
}

impl World {
    fn new(id: u64, parent: Option<&World>, map: PageMap) -> World {
        World {
            stats: WorldStats {
                pages_inherited: map.mapped_pages() as u64,
                ..WorldStats::default()
            },
            map,
            lineage: Arc::new(Lineage {
                id,
                parent: parent.map(|p| Arc::clone(&p.lineage)),
            }),
        }
    }

    /// Raw id of the world this one was forked from, if any.
    fn parent(&self) -> Option<u64> {
        self.lineage.parent.as_ref().map(|p| p.id)
    }
}

/// One shard of the world table: the worlds whose ids hash here.
#[derive(Debug, Default)]
struct Shard {
    worlds: WorldTable<World>,
}

/// How a write committed (drives counters and event emission, which
/// happen after every lock is released).
enum Committed {
    /// The page was already private; bytes written in place.
    /// `invalidated` records that the mutation retracted the frame's
    /// content-index entry.
    InPlace { invalidated: bool },
    /// A demand-zero page was materialised — or, with `deduped`, the
    /// would-be zero-fill re-shared an existing identical frame.
    ZeroFill { parent: Option<u64>, deduped: bool },
    /// A shared page was copied. `freed` is set in the rare race where the
    /// last other reference vanished while the copy was built — the frame
    /// count then nets zero and the gauge needs the matching free. With
    /// `deduped`, the copy was discarded in favour of an existing
    /// identical frame (no new frame entered the table).
    Cow {
        parent: Option<u64>,
        freed: bool,
        deduped: bool,
    },
}

/// Frames detached by releasing leaves, on their way to one
/// [`FrameTable::recycle_freed`] call.
type Detached = Vec<(u32, Arc<PageData>)>;

/// A thread-safe single-level store of fixed-size pages with copy-on-write
/// world forking.
///
/// Cloning a `PageStore` is cheap: clones share the same underlying store
/// (it is a bundle of `Arc`s internally), so the thread executor can hand
/// one to each alternative.
#[derive(Clone)]
pub struct PageStore {
    shards: Arc<Vec<RwLock<Shard>>>,
    frames: Arc<FrameTable>,
    next_world: Arc<AtomicU64>,
    stats: Arc<StatsInner>,
    page_size: usize,
    obs: Registry,
    /// Virtual-time stamp for emitted events, settable by whoever owns the
    /// clock (the kernel simulator); standalone users leave it at 0.
    clock: Arc<AtomicU64>,
    /// Content-addressed dedupe switch (see the module docs). Shared by
    /// clones; off by default because workloads that rewrite private
    /// pages in place gain nothing from sealing.
    dedupe: Arc<AtomicBool>,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("page_size", &self.page_size)
            .field("worlds", &self.world_count())
            .field("live_frames", &self.frames.live_frames())
            .finish()
    }
}

impl PageStore {
    /// A new, empty store with the given page size (bytes). Page size must
    /// be nonzero; the paper's machines used 2 KiB (3B2) and 4 KiB (HP).
    pub fn new(page_size: usize) -> Self {
        Self::with_obs(page_size, Registry::disabled())
    }

    /// Like [`PageStore::new`], with an observability registry: every CoW
    /// copy, zero fill, and frame free emits an event, and the registry's
    /// `frames_resident` gauge follows from event arithmetic alone (so a
    /// JSONL replay reconstructs it exactly).
    pub fn with_obs(page_size: usize, obs: Registry) -> Self {
        assert!(page_size > 0, "page size must be nonzero");
        PageStore {
            shards: Arc::new(
                (0..NUM_SHARDS)
                    .map(|_| RwLock::new(Shard::default()))
                    .collect(),
            ),
            frames: Arc::new(FrameTable::new()),
            next_world: Arc::new(AtomicU64::new(1)),
            stats: Arc::new(StatsInner::default()),
            page_size,
            obs,
            clock: Arc::new(AtomicU64::new(0)),
            dedupe: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A fresh, empty store that *shares this store's world-id allocator*
    /// (plus its registry, clock, and page size) but owns its own worlds
    /// and frames. Multi-store topologies — one store per cluster node —
    /// use this so a world id names at most one world anywhere, letting
    /// trace consumers treat ids as global: a world restored on another
    /// node can cite its origin world as a causal parent without the two
    /// ids colliding.
    pub fn new_sharing_ids(&self) -> Self {
        PageStore {
            shards: Arc::new(
                (0..NUM_SHARDS)
                    .map(|_| RwLock::new(Shard::default()))
                    .collect(),
            ),
            frames: Arc::new(FrameTable::new()),
            next_world: Arc::clone(&self.next_world),
            stats: Arc::new(StatsInner::default()),
            page_size: self.page_size,
            obs: self.obs.clone(),
            clock: Arc::clone(&self.clock),
            dedupe: Arc::new(AtomicBool::new(self.dedupe.load(Relaxed))),
        }
    }

    /// Enable or disable content-addressed dedupe (see the module docs).
    /// Shared by all clones of this store; default off. Turning it off
    /// stops sealing and probing but leaves existing index entries to be
    /// retracted lazily (they stay byte-verified, so never wrong).
    pub fn set_dedupe(&self, on: bool) {
        self.dedupe.store(on, Relaxed);
    }

    /// Is content-addressed dedupe currently enabled?
    pub fn dedupe_enabled(&self) -> bool {
        self.dedupe.load(Relaxed)
    }

    /// The store's observability registry (disabled unless constructed
    /// with [`PageStore::with_obs`] / [`PageStore::set_obs`]).
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Attach a registry after construction. Call before handing out
    /// clones: clones made earlier keep the registry they were built with.
    pub fn set_obs(&mut self, obs: Registry) {
        self.obs = obs;
    }

    /// Set the virtual-time stamp applied to subsequently emitted events.
    /// Shared by all clones of this store.
    pub fn set_clock_ns(&self, ns: u64) {
        self.clock.store(ns, Relaxed);
    }

    /// The current virtual-time stamp (last [`PageStore::set_clock_ns`]).
    pub fn clock_ns(&self) -> u64 {
        self.vt()
    }

    fn vt(&self) -> u64 {
        self.clock.load(Relaxed)
    }

    /// The store's page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of world-table shards (see the module docs).
    pub fn shard_count(&self) -> usize {
        NUM_SHARDS
    }

    #[inline]
    fn shard(&self, id: u64) -> &RwLock<Shard> {
        &self.shards[shard_index(id)]
    }

    /// Write-lock the shards of `a` and `b` following the lock hierarchy
    /// (ascending shard index). Returned guards are in `(a, b)` order; the
    /// second is `None` when both ids share a shard.
    fn lock_pair_write(
        &self,
        a: u64,
        b: u64,
    ) -> (
        RwLockWriteGuard<'_, Shard>,
        Option<RwLockWriteGuard<'_, Shard>>,
    ) {
        let (ia, ib) = (shard_index(a), shard_index(b));
        if ia == ib {
            (self.shards[ia].write(), None)
        } else if ia < ib {
            let ga = self.shards[ia].write();
            let gb = self.shards[ib].write();
            (ga, Some(gb))
        } else {
            let gb = self.shards[ib].write();
            let ga = self.shards[ia].write();
            (ga, Some(gb))
        }
    }

    /// Read-lock twin of [`PageStore::lock_pair_write`].
    fn lock_pair_read(
        &self,
        a: u64,
        b: u64,
    ) -> (
        RwLockReadGuard<'_, Shard>,
        Option<RwLockReadGuard<'_, Shard>>,
    ) {
        let (ia, ib) = (shard_index(a), shard_index(b));
        if ia == ib {
            (self.shards[ia].read(), None)
        } else if ia < ib {
            let ga = self.shards[ia].read();
            let gb = self.shards[ib].read();
            (ga, Some(gb))
        } else {
            let gb = self.shards[ib].read();
            let ga = self.shards[ia].read();
            (ga, Some(gb))
        }
    }

    /// Create a fresh root world with an empty (all demand-zero) map.
    pub fn create_world(&self) -> WorldId {
        let id = self.next_world.fetch_add(1, Relaxed);
        let mut shard = self.shard(id).write();
        shard
            .worlds
            .insert(id, World::new(id, None, PageMap::new()));
        WorldId(id)
    }

    /// Do `self` and `other` name the same underlying store (clones of
    /// one another)? Batched elimination uses this to group queued losers
    /// that can share one [`PageStore::drop_worlds`] call.
    pub fn same_store(&self, other: &PageStore) -> bool {
        Arc::ptr_eq(&self.shards, &other.shards)
    }

    /// Fork `parent` into a new child world that shares every page
    /// copy-on-write. Only the page map's directory is copied (page-map
    /// inheritance, §2.3) and each leaf gains a holder; no frame count and
    /// no page byte moves. Holds the parent's and child's shard locks
    /// together so the clone + insert is atomic with respect to the
    /// reference invariant (and so the parent cannot be dropped mid-clone).
    pub fn fork_world(&self, parent: WorldId) -> Result<WorldId> {
        let id = self.next_world.fetch_add(1, Relaxed);
        let (mut pg, mut cg) = self.lock_pair_write(parent.0, id);
        let child = {
            let p = pg
                .worlds
                .get(&parent.0)
                .ok_or(PageStoreError::NoSuchWorld(parent.0))?;
            World::new(id, Some(p), p.map.clone())
        };
        let child_shard: &mut Shard = match cg.as_mut() {
            Some(g) => g,
            None => &mut pg,
        };
        child_shard.worlds.insert(id, child);
        drop(cg);
        drop(pg);
        self.stats.forks.incr();
        Ok(WorldId(id))
    }

    /// Read `len` bytes at `offset` within page `vpn` of `world`. Unmapped
    /// pages read as zeroes (demand-zero semantics). The byte copy happens
    /// on an `Arc` snapshot of the page, outside every lock.
    pub fn read(&self, world: WorldId, vpn: Vpn, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len())?;
        let data = self.page_snapshot(world, vpn)?;
        match data {
            Some(arc) => buf.copy_from_slice(&arc.bytes()[offset..offset + buf.len()]),
            None => buf.fill(0),
        }
        self.stats.reads.incr();
        Ok(())
    }

    /// Convenience: read into a freshly allocated `Vec`. The buffer is
    /// filled in a single pass (no zero-then-overwrite).
    pub fn read_vec(&self, world: WorldId, vpn: Vpn, offset: usize, len: usize) -> Result<Vec<u8>> {
        self.check_bounds(offset, len)?;
        let v = match self.page_snapshot(world, vpn)? {
            Some(arc) => arc.bytes()[offset..offset + len].to_vec(),
            None => vec![0; len],
        };
        self.stats.reads.incr();
        Ok(v)
    }

    /// Snapshot the page mapped at `vpn`, if any, under the shard read lock.
    fn page_snapshot(&self, world: WorldId, vpn: Vpn) -> Result<Option<Arc<PageData>>> {
        let shard = self.shard(world.0).read();
        let w = shard
            .worlds
            .get(&world.0)
            .ok_or(PageStoreError::NoSuchWorld(world.0))?;
        Ok(w.map.get(vpn).map(|f| self.frames.data_arc(f)))
    }

    /// Snapshot the page each of `vpns` maps in `world` (`None` where it
    /// maps none), all under one shard read lock. Each snapshot counts as
    /// the read it stands in for. While a caller holds a snapshot, an
    /// in-place write to that frame copies it first, so the snapshot's
    /// bytes never change under it.
    pub(crate) fn snapshots(
        &self,
        world: WorldId,
        vpns: &[Vpn],
    ) -> Result<Vec<Option<Arc<PageData>>>> {
        let shard = self.shard(world.0).read();
        let w = shard
            .worlds
            .get(&world.0)
            .ok_or(PageStoreError::NoSuchWorld(world.0))?;
        let pages = vpns
            .iter()
            .map(|&vpn| w.map.get(vpn).map(|f| self.frames.data_arc(f)))
            .collect();
        drop(shard);
        self.stats.reads.add(vpns.len() as u64);
        Ok(pages)
    }

    /// Every page `world` maps, ascending by vpn, snapshotted under one
    /// shard read lock as [`PageStore::snapshots`] does.
    pub(crate) fn mapped_snapshots(&self, world: WorldId) -> Result<Vec<(Vpn, Arc<PageData>)>> {
        let shard = self.shard(world.0).read();
        let w = shard
            .worlds
            .get(&world.0)
            .ok_or(PageStoreError::NoSuchWorld(world.0))?;
        let pages: Vec<_> = w
            .map
            .iter()
            .map(|(vpn, f)| (vpn, self.frames.data_arc(f)))
            .collect();
        drop(shard);
        self.stats.reads.add(pages.len() as u64);
        Ok(pages)
    }

    /// Write `data` at `offset` within page `vpn` of `world`, taking a COW
    /// fault if the page is shared with any other world. One critical
    /// section under the world's shard write lock (see the module docs).
    pub fn write(&self, world: WorldId, vpn: Vpn, offset: usize, data: &[u8]) -> Result<()> {
        self.check_bounds(offset, data.len())?;
        // Full-page writes are seal points when dedupe is on: the result's
        // bytes are exactly `data`, so the hash is known before any lock.
        let seal = (self.dedupe_enabled() && offset == 0 && data.len() == self.page_size)
            .then(|| page_hash(data));
        let committed = {
            let mut shard = self.shard(world.0).write();
            let w = shard
                .worlds
                .get_mut(&world.0)
                .ok_or(PageStoreError::NoSuchWorld(world.0))?;
            match self.write_in_place(w, vpn, offset, data, seal) {
                Some(done) => done,
                None => {
                    let mapped = w.map.get(vpn);
                    let page = if data.len() == self.page_size {
                        // Every byte is overwritten: the shared page's
                        // bytes would only be copied to be copied over.
                        self.page_from(data)
                    } else {
                        self.stage(
                            mapped.map(|frame| self.frames.data_arc(frame)),
                            offset,
                            data,
                        )
                    };
                    let hash = self
                        .dedupe_enabled()
                        .then(|| seal.unwrap_or_else(|| page_hash(page.bytes())));
                    self.commit_page(w, vpn, mapped.is_some(), page, hash)
                }
            }
        };
        self.stats.writes.incr();
        self.note_write(world, vpn, committed);
        Ok(())
    }

    /// Write a whole page whose buffer the caller hands over: the commit
    /// a full-page [`PageStore::write`] of `page.bytes()` makes, except
    /// that where that would install a copy, this installs `page` itself.
    /// Counters, events and dedupe sealing are the write's. A page that is
    /// private to `world` is written in place and `page` goes back to the
    /// recycle pool.
    pub(crate) fn write_owned(&self, world: WorldId, vpn: Vpn, page: PageData) -> Result<()> {
        debug_assert_eq!(page.len(), self.page_size, "an owned page is a whole page");
        let seal = self.dedupe_enabled().then(|| page_hash(page.bytes()));
        let committed = {
            let mut shard = self.shard(world.0).write();
            let Some(w) = shard.worlds.get_mut(&world.0) else {
                self.frames.recycle(page);
                return Err(PageStoreError::NoSuchWorld(world.0));
            };
            match self.write_in_place(w, vpn, 0, page.bytes(), seal) {
                Some(done) => {
                    self.frames.recycle(page);
                    done
                }
                None => {
                    let cow = w.map.get(vpn).is_some();
                    self.commit_page(w, vpn, cow, page, seal)
                }
            }
        };
        self.stats.writes.incr();
        self.note_write(world, vpn, committed);
        Ok(())
    }

    /// A page buffer holding a copy of `bytes` (a whole page): a pooled
    /// buffer overwritten in place when one is at hand, else a fresh one
    /// filled in one pass. Neither is zero-filled first.
    pub(crate) fn page_from(&self, bytes: &[u8]) -> PageData {
        debug_assert_eq!(bytes.len(), self.page_size);
        match self.take_pooled() {
            Some(mut page) => {
                page.bytes_mut().copy_from_slice(bytes);
                page
            }
            None => PageData::copy_of(bytes),
        }
    }

    /// A buffer from the recycle pool, counted as a recycled frame.
    fn take_pooled(&self) -> Option<PageData> {
        let page = self.frames.take_pooled();
        if page.is_some() {
            self.stats.frames_recycled.incr();
        }
        page
    }

    /// Append `n` page buffers to `out`: as many from the recycle pool as
    /// it holds, under one lock acquisition (each counted as a recycled
    /// frame), the rest freshly allocated. Their bytes are whatever they
    /// held; the caller overwrites every one.
    pub(crate) fn page_buffers(&self, n: usize, out: &mut Vec<PageData>) {
        let pooled = self.frames.take_pooled_many(n, out);
        self.stats.frames_recycled.add(pooled as u64);
        out.extend((pooled..n).map(|_| PageData::zeroed(self.page_size)));
    }

    /// Return page buffers no frame took to the recycle pool, under one
    /// lock acquisition.
    pub(crate) fn recycle_pages(&self, pages: Vec<PageData>) {
        self.frames.recycle_many(pages);
    }

    /// Let go of one handle on `leaf`. The releaser that held the last one
    /// drops the leaf's slot references, detaching frames that reach zero
    /// onto `detached` (rule 1 of the module docs).
    fn release_leaf(&self, leaf: Arc<Leaf>, detached: &mut Detached) {
        if let Some(leaf) = Arc::into_inner(leaf) {
            for frame in leaf.frames() {
                self.frames.decref_deferred(frame, detached);
            }
        }
    }

    /// Release every leaf of a map that has just left the world table
    /// (the caller still holds that shard's write lock). Returns how many
    /// frames that freed.
    fn release_map(&self, map: PageMap, detached: &mut Detached) -> u64 {
        let before = detached.len();
        for leaf in map.into_leaves() {
            self.release_leaf(leaf, detached);
        }
        (detached.len() - before) as u64
    }

    /// Point `vpn` of `w` at `frame`, whose reference the caller hands
    /// over with it, and settle what that displaced. The caller holds
    /// `w`'s shard write lock. Returns whether a frame was freed: the
    /// displaced frame, if the last reference to it went with the slot or
    /// with the old leaf (a sharer in another shard may let go of either
    /// concurrently, so this can happen to a page that was shared a
    /// moment ago).
    fn install(&self, w: &mut World, vpn: Vpn, frame: FrameId) -> bool {
        match w.map.insert(vpn, frame) {
            Displaced::Nothing => false,
            Displaced::Frame(old) => self.frames.decref(old),
            Displaced::Leaf(old) => {
                for beside in old.frames_beside(vpn) {
                    self.frames.incref(beside);
                }
                let mut detached = Vec::new();
                self.release_leaf(old, &mut detached);
                let freed = !detached.is_empty();
                self.frames.recycle_freed(detached);
                freed
            }
        }
    }

    /// Write in place if `vpn` is private to `w` (exclusive path and
    /// `refs == 1`; see the module docs). The caller holds `w`'s shard
    /// write lock.
    fn write_in_place(
        &self,
        w: &World,
        vpn: Vpn,
        offset: usize,
        data: &[u8],
        seal: Option<u64>,
    ) -> Option<Committed> {
        let (frame, exclusive) = w.map.probe(vpn)?;
        if !exclusive {
            return None;
        }
        let invalidated = self.frames.write_if_private(frame, offset, data, seal)?;
        Some(Committed::InPlace { invalidated })
    }

    /// Build the page a copying write of part of a page will install:
    /// `base`'s bytes (zeroes for a fresh page) with `data` laid over
    /// them, in a pooled buffer when one is at hand. The `base` snapshot
    /// is let go here, before the install, so a sharer's next in-place
    /// write is not forced into a spurious copy by our hold on it.
    fn stage(&self, base: Option<Arc<PageData>>, offset: usize, data: &[u8]) -> PageData {
        let mut page = match (self.take_pooled(), base.as_deref()) {
            (Some(mut page), Some(base)) => {
                page.bytes_mut().copy_from_slice(base.bytes());
                page
            }
            (Some(mut page), None) => {
                page.bytes_mut().fill(0);
                page
            }
            (None, Some(base)) => PageData::copy_of(base.bytes()),
            (None, None) => PageData::zeroed(self.page_size),
        };
        page.bytes_mut()[offset..offset + data.len()].copy_from_slice(data);
        page
    }

    /// Install a built page at `vpn` under `w`'s shard write lock: the
    /// page itself, or — on a verified content-index hit — the identical
    /// frame some world already holds. `cow` says whether `vpn` was
    /// mapped (a copy) or fresh (a zero fill).
    fn commit_page(
        &self,
        w: &mut World,
        vpn: Vpn,
        cow: bool,
        page: PageData,
        hash: Option<u64>,
    ) -> Committed {
        // The dedupe probe runs under the exclusive lock only (see the
        // module docs' verify argument).
        let (frame, deduped) = match hash.and_then(|h| self.frames.dedupe_lookup(h, page.bytes())) {
            Some(shared) => {
                self.frames.recycle(page);
                (shared, true)
            }
            None => {
                let frame = self.frames.alloc(page);
                if let Some(hash) = hash {
                    self.frames.index_insert(frame, hash);
                }
                (frame, false)
            }
        };
        let parent = w.parent();
        let freed = self.install(w, vpn, frame);
        if cow {
            w.stats.pages_cowed += 1;
            Committed::Cow {
                parent,
                freed,
                deduped,
            }
        } else {
            w.stats.pages_zero_filled += 1;
            Committed::ZeroFill { parent, deduped }
        }
    }

    /// Post-commit accounting for a write: bump counters
    /// and emit events, with every lock already released.
    fn note_write(&self, world: WorldId, vpn: Vpn, committed: Committed) {
        match committed {
            Committed::InPlace { invalidated } => {
                if invalidated {
                    self.stats.hash_invalidations.incr();
                }
            }
            Committed::ZeroFill { parent, deduped } => {
                if deduped {
                    self.note_dedupe(world.0, parent, vpn, false);
                    return;
                }
                self.stats.zero_fills.incr();
                self.obs
                    .emit(|| Event::new(EventKind::ZeroFill { vpn }, world.0, parent, self.vt()));
            }
            Committed::Cow {
                parent,
                freed,
                deduped,
            } => {
                if deduped {
                    self.note_dedupe(world.0, parent, vpn, freed);
                    return;
                }
                self.stats.cow_faults.incr();
                self.stats.bytes_copied.add(self.page_size as u64);
                let bytes = self.page_size as u64;
                self.obs.emit(|| {
                    Event::new(
                        EventKind::CowCopy { vpn, bytes },
                        world.0,
                        parent,
                        self.vt(),
                    )
                });
                if freed {
                    self.stats.frames_freed.incr();
                    self.obs.emit(|| {
                        Event::new(
                            EventKind::FrameFree { frames: 1 },
                            world.0,
                            parent,
                            self.vt(),
                        )
                    });
                }
            }
        }
    }

    /// Accounting for a dedupe hit: the would-be copy re-shared an
    /// existing frame, so no `CowCopy`/`ZeroFill` is emitted (the
    /// `frames_resident` gauge sees no new frame) — a `FrameDedup`
    /// carries the saved bytes instead, plus the matching `FrameFree`
    /// when the displaced frame's last reference went with it.
    fn note_dedupe(&self, world: u64, parent: Option<u64>, vpn: Vpn, freed: bool) {
        self.stats.dedupe_hits.incr();
        self.stats.bytes_deduped.add(self.page_size as u64);
        let bytes = self.page_size as u64;
        self.obs.emit(|| {
            Event::new(
                EventKind::FrameDedup { vpn, bytes },
                world,
                parent,
                self.vt(),
            )
        });
        if freed {
            self.stats.frames_freed.incr();
            self.obs
                .emit(|| Event::new(EventKind::FrameFree { frames: 1 }, world, parent, self.vt()));
        }
    }

    /// Atomically replace `parent`'s page map with `child`'s and destroy the
    /// child: the `alt_wait` commit. After `adopt`, reads in `parent` see
    /// exactly what the child saw; the child id is gone. The child must be a
    /// descendant of `parent` (transitively), mirroring the paper's
    /// parent/child rendezvous.
    pub fn adopt(&self, parent: WorldId, child: WorldId) -> Result<()> {
        let (mut pg, mut cg) = self.lock_pair_write(parent.0, child.0);
        if !pg.worlds.contains_key(&parent.0) {
            return Err(PageStoreError::NoSuchWorld(parent.0));
        }
        let cs: &mut Shard = match cg.as_mut() {
            Some(g) => g,
            None => &mut pg,
        };
        // Verify lineage: the child's chain must pass through `parent`,
        // possibly by way of intermediates that were already eliminated.
        let c = cs
            .worlds
            .get(&child.0)
            .ok_or(PageStoreError::NoSuchWorld(child.0))?;
        if !c.lineage.descends_from(parent.0) {
            return Err(PageStoreError::NotAChild {
                parent: parent.0,
                child: child.0,
            });
        }
        // Remove the child world; its map (leaf handles and all) transfers
        // to the parent wholesale, so no count moves for it.
        let child_world = cs.worlds.remove(&child.0).expect("looked up above");
        let p = pg.worlds.get_mut(&parent.0).expect("checked above");
        let old_map = std::mem::replace(&mut p.map, child_world.map);
        // Fold the child's copy accounting into the parent so write-fraction
        // measurements survive the commit.
        p.stats.pages_cowed += child_world.stats.pages_cowed;
        p.stats.pages_zero_filled += child_world.stats.pages_zero_filled;
        let grandparent = p.parent();
        // Only leaves the parent held alone (the child path-copied them)
        // or last give up frames; the ones the child inherited just lose
        // a holder.
        let mut detached = Vec::new();
        let freed = self.release_map(old_map, &mut detached);
        drop(cg);
        drop(pg);
        self.frames.recycle_freed(detached);
        self.stats.adopts.incr();
        if freed > 0 {
            self.stats.frames_freed.add(freed);
            self.obs.emit(|| {
                Event::new(
                    EventKind::FrameFree { frames: freed },
                    parent.0,
                    grandparent,
                    self.vt(),
                )
            });
        }
        Ok(())
    }

    /// Commit a remote winner's pages into `base`, all or nothing: each
    /// `(vpn, bytes)` is written at offset 0 of a fork of `base`, which
    /// `base` then adopts in one step. A page the store refuses (too long,
    /// say) drops the fork, so `base` is untouched and nothing leaks; a
    /// concurrent reader of `base` sees every page of the commit or none.
    pub fn commit_pages(&self, base: WorldId, pages: &[(Vpn, Vec<u8>)]) -> Result<()> {
        let staged = self.fork_world(base)?;
        let applied = pages
            .iter()
            .try_for_each(|(vpn, bytes)| self.write(staged, *vpn, 0, bytes))
            .and_then(|()| self.adopt(base, staged));
        if applied.is_err() {
            let _ = self.drop_world(staged);
        }
        applied
    }

    /// Destroy a world (sibling elimination). Its map lets go of every
    /// leaf; only leaves no survivor holds give up their frames, and frames
    /// that hit zero are freed into the recycle pool (and announced with a
    /// `FrameFree` event so `frames_resident` replays exactly from JSONL).
    /// The one-element case of [`PageStore::drop_worlds`], except that a
    /// missing world is an error here.
    pub fn drop_world(&self, world: WorldId) -> Result<()> {
        match self.drop_worlds(&[world]) {
            0 => Err(PageStoreError::NoSuchWorld(world.0)),
            _ => Ok(()),
        }
    }

    /// Batched sibling elimination: drop every world in `worlds`, sending
    /// the whole batch's freed frames to the recycler under a *single*
    /// lock acquisition, outside every shard lock. Worlds that no longer
    /// exist are skipped (a loser may tear itself down while the parent
    /// queues the batch). Counters and per-world `FrameFree` events are
    /// identical — content and order — to a loop of
    /// [`PageStore::drop_world`] calls, so a JSONL replay cannot tell
    /// batched from sequential elimination. Returns how many worlds were
    /// actually dropped.
    pub fn drop_worlds(&self, worlds: &[WorldId]) -> usize {
        let mut detached = Vec::new();
        // (world, parent, frames freed) for each world actually dropped.
        let mut dropped: Vec<(u64, Option<u64>, u64)> = Vec::with_capacity(worlds.len());
        for &world in worlds {
            let mut shard = self.shard(world.0).write();
            let Some(w) = shard.worlds.remove(&world.0) else {
                continue;
            };
            let parent = w.parent();
            let freed = self.release_map(w.map, &mut detached);
            drop(shard);
            dropped.push((world.0, parent, freed));
        }
        self.frames.recycle_freed(detached);
        for &(world, parent, freed) in &dropped {
            self.stats.worlds_dropped.incr();
            if freed > 0 {
                self.stats.frames_freed.add(freed);
                self.obs.emit(|| {
                    Event::new(
                        EventKind::FrameFree { frames: freed },
                        world,
                        parent,
                        self.vt(),
                    )
                });
            }
        }
        dropped.len()
    }

    /// Does this world currently exist?
    pub fn world_exists(&self, world: WorldId) -> bool {
        self.shard(world.0).read().worlds.contains_key(&world.0)
    }

    /// Number of live worlds.
    pub fn world_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().worlds.len()).sum()
    }

    /// Number of live physical frames (for leak checks and memory
    /// accounting: `live_frames * page_size` bytes of page data).
    pub fn live_frames(&self) -> usize {
        self.frames.live_frames()
    }

    /// The VPNs currently mapped in `world`, ascending.
    pub fn mapped_vpns(&self, world: WorldId) -> Result<Vec<Vpn>> {
        let shard = self.shard(world.0).read();
        shard
            .worlds
            .get(&world.0)
            .map(|w| w.map.iter().map(|(v, _)| v).collect())
            .ok_or(PageStoreError::NoSuchWorld(world.0))
    }

    /// Per-world residency split for tenant accounting: walk `world`'s
    /// map and classify each page — private means this world is its sole
    /// owner (it alone holds the leaf, and the frame's one reference is
    /// that leaf's slot: the marginal memory the tenant pays for; dropping
    /// the world returns exactly this many frames), anything else is
    /// shared and costs nothing extra. Taken under the world's shard read
    /// lock; forks and drops elsewhere can move a frame between classes
    /// concurrently, so this is a point-in-time account, not an invariant.
    pub fn resident_frames_of(&self, world: WorldId) -> Result<ResidentFrames> {
        let shard = self.shard(world.0).read();
        let w = shard
            .worlds
            .get(&world.0)
            .ok_or(PageStoreError::NoSuchWorld(world.0))?;
        let mut out = ResidentFrames::default();
        for leaf in w.map.leaves() {
            let exclusive = Arc::strong_count(leaf) == 1;
            for frame in leaf.frames() {
                if exclusive && self.frames.refs(frame) == 1 {
                    out.private += 1;
                } else {
                    out.shared += 1;
                }
            }
        }
        Ok(out)
    }

    /// Number of pages mapped in `world`.
    pub fn mapped_pages(&self, world: WorldId) -> Result<usize> {
        let shard = self.shard(world.0).read();
        shard
            .worlds
            .get(&world.0)
            .map(|w| w.map.mapped_pages())
            .ok_or(PageStoreError::NoSuchWorld(world.0))
    }

    /// VPNs at which `a` and `b` differ (see [`PageMap::diff`]).
    pub fn diff_worlds(&self, a: WorldId, b: WorldId) -> Result<Vec<Vpn>> {
        let (ga, gb) = self.lock_pair_read(a.0, b.0);
        let sb: &Shard = match &gb {
            Some(g) => g,
            None => &ga,
        };
        let wa = ga
            .worlds
            .get(&a.0)
            .ok_or(PageStoreError::NoSuchWorld(a.0))?;
        let wb = sb
            .worlds
            .get(&b.0)
            .ok_or(PageStoreError::NoSuchWorld(b.0))?;
        Ok(wa.map.diff(&wb.map))
    }

    /// Frame-sharing histogram: `histogram[k]` = number of live frames
    /// referenced by exactly `k+1` worlds. The paper's memory argument in
    /// one structure: heavy sharing (mass at high `k`) is what makes
    /// speculation affordable. Takes every shard read lock (ascending, per
    /// the lock hierarchy) for a consistent snapshot.
    pub fn sharing_histogram(&self) -> Vec<usize> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for g in &guards {
            for w in g.worlds.values() {
                for (_, frame) in w.map.iter() {
                    *counts.entry(frame.index()).or_insert(0) += 1;
                }
            }
        }
        let mut hist = Vec::new();
        for (_, refs) in counts {
            if hist.len() < refs {
                hist.resize(refs, 0);
            }
            hist[refs - 1] += 1;
        }
        hist
    }

    /// Mean number of worlds referencing each live frame (1.0 = no
    /// sharing at all; higher = more COW leverage).
    pub fn sharing_factor(&self) -> f64 {
        let hist = self.sharing_histogram();
        let frames: usize = hist.iter().sum();
        if frames == 0 {
            return 1.0;
        }
        let refs: usize = hist.iter().enumerate().map(|(i, &n)| (i + 1) * n).sum();
        refs as f64 / frames as f64
    }

    /// Check the reference invariant: every leaf's count equals the
    /// number of live maps holding it, every live frame's refcount equals
    /// the number of distinct live leaf slots naming it (a leaf several
    /// worlds hold is walked once, by pointer), the live-frame counter
    /// matches, and content-index entries name mapped frames. Takes every
    /// shard read lock (ascending), so it can run concurrently with reads
    /// but excludes writes and structural changes. Returns the number of live frames verified, or
    /// a description of the first violation found.
    pub fn verify_refcounts(&self) -> std::result::Result<usize, String> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let mut leaves: HashMap<*const Leaf, (&Arc<Leaf>, usize)> = HashMap::new();
        for g in &guards {
            for w in g.worlds.values() {
                for leaf in w.map.leaves() {
                    leaves.entry(Arc::as_ptr(leaf)).or_insert((leaf, 0)).1 += 1;
                }
            }
        }
        let mut expected: HashMap<u32, u32> = HashMap::new();
        for &(leaf, holders) in leaves.values() {
            let count = Arc::strong_count(leaf);
            if count != holders {
                return Err(format!(
                    "leaf {:p}: count {count} but held by {holders} maps",
                    Arc::as_ptr(leaf)
                ));
            }
            for frame in leaf.frames() {
                *expected.entry(frame.index()).or_insert(0) += 1;
            }
        }
        let actual = self.frames.snapshot_refs();
        for &(idx, refs) in &actual {
            match expected.get(&idx) {
                Some(&want) if want == refs => {}
                Some(&want) => {
                    return Err(format!(
                        "frame {idx}: {refs} refs in table but {want} leaf slots"
                    ))
                }
                None => {
                    return Err(format!(
                        "frame {idx}: live with {refs} refs but mapped in no world"
                    ))
                }
            }
        }
        if actual.len() != expected.len() {
            return Err(format!(
                "{} frames mapped in worlds but only {} live in the table",
                expected.len(),
                actual.len()
            ));
        }
        let live = self.frames.live_frames();
        if live != actual.len() {
            return Err(format!(
                "live-frame counter says {live}, table holds {}",
                actual.len()
            ));
        }
        // Content-index extension of the invariant: every occupied index
        // entry must reference a live frame, and since refcounts equal
        // map entries (checked above), index-driven re-shares are fully
        // accounted for by the maps — an indexed frame no world maps
        // would be a leaked reference.
        for (frame, refs) in self.frames.index_snapshot() {
            if refs == 0 {
                return Err(format!(
                    "content index entry references freed frame {frame}"
                ));
            }
            if !expected.contains_key(&frame) {
                return Err(format!(
                    "content index entry references frame {frame} mapped in no world"
                ));
            }
        }
        Ok(live)
    }

    /// Store-wide counters snapshot. The `recycler_locks` field comes
    /// from the frame table's exact acquisition count.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.stats.snapshot();
        s.recycler_locks = self.frames.recycler_lock_count();
        s
    }

    /// Per-world counters snapshot.
    pub fn world_stats(&self, world: WorldId) -> Result<WorldStats> {
        let shard = self.shard(world.0).read();
        shard
            .worlds
            .get(&world.0)
            .map(|w| w.stats)
            .ok_or(PageStoreError::NoSuchWorld(world.0))
    }

    /// Parent of `world`, if it was forked rather than created.
    pub fn parent_of(&self, world: WorldId) -> Result<Option<WorldId>> {
        let shard = self.shard(world.0).read();
        shard
            .worlds
            .get(&world.0)
            .map(|w| w.parent().map(WorldId))
            .ok_or(PageStoreError::NoSuchWorld(world.0))
    }

    fn check_bounds(&self, offset: usize, len: usize) -> Result<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.page_size)
        {
            Err(PageStoreError::OutOfPageBounds {
                offset,
                len,
                page_size: self.page_size,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE_DEFAULT;

    fn store() -> PageStore {
        PageStore::new(64)
    }

    /// Run `f` on `world`'s table entry, under its shard read lock.
    fn with_world<R>(s: &PageStore, world: WorldId, f: impl FnOnce(&World) -> R) -> R {
        let shard = s.shards[shard_index(world.raw())].read();
        f(shard.worlds.get(&world.raw()).expect("live world"))
    }

    /// How many leaves `a` and `b` hold in common (by pointer).
    fn shared_leaves(s: &PageStore, a: WorldId, b: WorldId) -> usize {
        let of = |w| -> Vec<*const Leaf> {
            with_world(s, w, |w| w.map.leaves().map(Arc::as_ptr).collect())
        };
        let theirs = of(b);
        of(a).into_iter().filter(|l| theirs.contains(l)).count()
    }

    #[test]
    fn demand_zero_reads() {
        let s = store();
        let w = s.create_world();
        assert_eq!(s.read_vec(w, 99, 0, 8).unwrap(), vec![0u8; 8]);
        assert_eq!(
            s.mapped_pages(w).unwrap(),
            0,
            "reads must not materialise pages"
        );
    }

    #[test]
    fn write_then_read_round_trip() {
        let s = store();
        let w = s.create_world();
        s.write(w, 3, 10, b"hello").unwrap();
        assert_eq!(s.read_vec(w, 3, 10, 5).unwrap(), b"hello");
        assert_eq!(s.mapped_pages(w).unwrap(), 1);
        assert_eq!(s.stats().zero_fills, 1);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let s = store();
        let w = s.create_world();
        let err = s.write(w, 0, 60, b"too long").unwrap_err();
        assert!(matches!(err, PageStoreError::OutOfPageBounds { .. }));
        let mut buf = [0u8; 8];
        let err = s.read(w, 0, 60, &mut buf).unwrap_err();
        assert!(matches!(err, PageStoreError::OutOfPageBounds { .. }));
        let err = s.read_vec(w, 0, 60, 8).unwrap_err();
        assert!(matches!(err, PageStoreError::OutOfPageBounds { .. }));
    }

    #[test]
    fn offset_plus_len_overflow_rejected() {
        let s = store();
        let w = s.create_world();
        let err = s.write(w, 0, usize::MAX, b"x").unwrap_err();
        assert!(matches!(err, PageStoreError::OutOfPageBounds { .. }));
    }

    #[test]
    fn fork_shares_pages_without_copying() {
        let s = store();
        let parent = s.create_world();
        for vpn in 0..10 {
            s.write(parent, vpn, 0, &[vpn as u8]).unwrap();
        }
        let before = s.stats();
        let child = s.fork_world(parent).unwrap();
        let after = s.stats();
        assert_eq!(
            after.delta_since(&before).bytes_copied,
            0,
            "fork must copy no page bytes"
        );
        assert_eq!(s.live_frames(), 10, "no new frames at fork");
        for vpn in 0..10 {
            assert_eq!(s.read_vec(child, vpn, 0, 1).unwrap(), vec![vpn as u8]);
        }
        assert_eq!(s.world_stats(child).unwrap().pages_inherited, 10);
    }

    #[test]
    fn cow_fault_copies_exactly_one_page() {
        let s = store();
        let parent = s.create_world();
        for vpn in 0..10 {
            s.write(parent, vpn, 0, &[1]).unwrap();
        }
        let child = s.fork_world(parent).unwrap();
        let before = s.stats();
        s.write(child, 4, 0, &[2]).unwrap();
        let d = s.stats().delta_since(&before);
        assert_eq!(d.cow_faults, 1);
        assert_eq!(d.bytes_copied, 64);
        // Parent unchanged; child sees its write.
        assert_eq!(s.read_vec(parent, 4, 0, 1).unwrap(), vec![1]);
        assert_eq!(s.read_vec(child, 4, 0, 1).unwrap(), vec![2]);
        assert_eq!(s.live_frames(), 11);
    }

    #[test]
    fn a_full_page_write_into_a_shared_page_copies_only_the_callers_bytes() {
        let s = store();
        let parent = s.create_world();
        s.write(parent, 4, 0, &[1; 64]).unwrap();
        s.write(parent, 5, 0, &[3; 64]).unwrap();
        let child = s.fork_world(parent).unwrap();
        // Recycle one buffer so the copy lands in a pooled page that held
        // other bytes: nothing of them, or of the base, may show through.
        let scratch = s.create_world();
        s.write(scratch, 0, 0, &[0xEE; 64]).unwrap();
        s.drop_world(scratch).unwrap();
        let before = s.stats();
        let page: Vec<u8> = (0..64).collect();
        s.write(child, 4, 0, &page).unwrap();
        s.write(child, 9, 0, &page).unwrap();
        let d = s.stats().delta_since(&before);
        // Counted as the copy and the fill it replaces.
        assert_eq!((d.cow_faults, d.bytes_copied, d.zero_fills), (1, 64, 1));
        assert_eq!(d.frames_recycled, 1);
        assert_eq!(s.read_vec(child, 4, 0, 64).unwrap(), page);
        assert_eq!(s.read_vec(child, 9, 0, 64).unwrap(), page);
        assert_eq!(s.read_vec(parent, 4, 0, 64).unwrap(), vec![1; 64]);
        assert_eq!(s.read_vec(parent, 9, 0, 64).unwrap(), vec![0; 64]);
        assert_eq!(s.read_vec(child, 5, 0, 64).unwrap(), vec![3; 64]);
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn an_owned_page_becomes_the_frame_and_counts_as_the_write() {
        let s = store();
        s.set_dedupe(true);
        let parent = s.create_world();
        s.write(parent, 0, 0, &[7; 64]).unwrap();
        let child = s.fork_world(parent).unwrap();
        let before = s.stats();
        s.write_owned(child, 0, PageData::copy_of(&[8; 64]))
            .unwrap();
        s.write_owned(child, 1, PageData::copy_of(&[7; 64]))
            .unwrap();
        // A private page is written in place; its buffer goes to the pool.
        s.write_owned(child, 0, PageData::copy_of(&[9; 64]))
            .unwrap();
        let d = s.stats().delta_since(&before);
        assert_eq!((d.writes, d.cow_faults, d.zero_fills), (3, 1, 0));
        // Page 1's bytes equal the parent's sealed page 0: shared.
        assert_eq!(d.dedupe_hits, 1);
        assert_eq!(s.frames.pooled_pages(), 2);
        assert_eq!(s.read_vec(child, 0, 0, 64).unwrap(), vec![9; 64]);
        assert_eq!(s.read_vec(child, 1, 0, 64).unwrap(), vec![7; 64]);
        assert_eq!(s.read_vec(parent, 0, 0, 64).unwrap(), vec![7; 64]);
        assert!(s
            .write_owned(WorldId(999), 0, PageData::zeroed(64))
            .is_err());
        assert_eq!(s.frames.pooled_pages(), 3, "a refused buffer is pooled too");
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn second_write_to_private_page_takes_no_fault() {
        let s = store();
        let parent = s.create_world();
        s.write(parent, 0, 0, &[1]).unwrap();
        let child = s.fork_world(parent).unwrap();
        s.write(child, 0, 0, &[2]).unwrap();
        let before = s.stats();
        s.write(child, 0, 1, &[3]).unwrap();
        assert_eq!(s.stats().delta_since(&before).cow_faults, 0);
    }

    #[test]
    fn parent_write_also_cows_when_shared() {
        // COW is symmetric: if the *parent* writes a shared page first, the
        // child must keep the pre-fork contents.
        let s = store();
        let parent = s.create_world();
        s.write(parent, 0, 0, &[1]).unwrap();
        let child = s.fork_world(parent).unwrap();
        s.write(parent, 0, 0, &[9]).unwrap();
        assert_eq!(s.read_vec(child, 0, 0, 1).unwrap(), vec![1]);
        assert_eq!(s.read_vec(parent, 0, 0, 1).unwrap(), vec![9]);
    }

    #[test]
    fn adopt_commits_child_state_atomically() {
        let s = store();
        let parent = s.create_world();
        s.write(parent, 0, 0, b"AAAA").unwrap();
        s.write(parent, 1, 0, b"BBBB").unwrap();
        let child = s.fork_world(parent).unwrap();
        s.write(child, 1, 0, b"CCCC").unwrap();
        s.write(child, 2, 0, b"DDDD").unwrap();
        s.adopt(parent, child).unwrap();
        assert!(!s.world_exists(child));
        assert_eq!(s.read_vec(parent, 0, 0, 4).unwrap(), b"AAAA");
        assert_eq!(s.read_vec(parent, 1, 0, 4).unwrap(), b"CCCC");
        assert_eq!(s.read_vec(parent, 2, 0, 4).unwrap(), b"DDDD");
        assert_eq!(s.stats().adopts, 1);
    }

    #[test]
    fn adopt_frees_replaced_frames() {
        let s = store();
        let parent = s.create_world();
        s.write(parent, 0, 0, &[1]).unwrap();
        let child = s.fork_world(parent).unwrap();
        s.write(child, 0, 0, &[2]).unwrap(); // now 2 frames
        assert_eq!(s.live_frames(), 2);
        s.adopt(parent, child).unwrap();
        assert_eq!(s.live_frames(), 1, "parent's old frame must be freed");
    }

    #[test]
    fn adopt_accepts_grandchildren() {
        let s = store();
        let a = s.create_world();
        let b = s.fork_world(a).unwrap();
        let c = s.fork_world(b).unwrap();
        s.write(c, 0, 0, &[7]).unwrap();
        s.drop_world(b).unwrap();
        s.adopt(a, c).unwrap();
        assert_eq!(s.read_vec(a, 0, 0, 1).unwrap(), vec![7]);
    }

    #[test]
    fn lineage_lives_exactly_as_long_as_a_descendant_does() {
        let s = store();
        let root = s.create_world();
        let holders = |w| with_world(&s, w, |w| Arc::strong_count(&w.lineage));
        assert_eq!(holders(root), 1);
        let kids: Vec<_> = (0..3).map(|_| s.fork_world(root).unwrap()).collect();
        let grand = s.fork_world(kids[0]).unwrap();
        assert_eq!(holders(root), 4, "one per child, plus the world's own");
        s.drop_world(kids[0]).unwrap();
        assert_eq!(holders(root), 4, "the grandchild keeps the dead link");
        s.drop_worlds(&[grand, kids[1]]);
        s.adopt(root, kids[2]).unwrap();
        assert_eq!(holders(root), 1, "nothing is remembered past its use");

        // A chain whose every ancestor is dead unlinks without recursing:
        // 200 000 frames deep would overflow a test thread's stack.
        let mut tip = root;
        for _ in 0..200_000 {
            let next = s.fork_world(tip).unwrap();
            s.drop_world(tip).unwrap();
            tip = next;
        }
        s.drop_world(tip).unwrap();
        assert_eq!(s.world_count(), 0);
    }

    #[test]
    fn adopt_rejects_unrelated_worlds() {
        let s = store();
        let a = s.create_world();
        let b = s.create_world();
        let err = s.adopt(a, b).unwrap_err();
        assert!(matches!(err, PageStoreError::NotAChild { .. }));
        // Sibling is not a child either.
        let p = s.create_world();
        let c1 = s.fork_world(p).unwrap();
        let c2 = s.fork_world(p).unwrap();
        assert!(matches!(
            s.adopt(c1, c2),
            Err(PageStoreError::NotAChild { .. })
        ));
    }

    #[test]
    fn commit_pages_is_all_or_nothing() {
        let s = store();
        let base = s.create_world();
        s.write(base, 0, 0, b"old").unwrap();
        let sibling = s.fork_world(base).unwrap();
        let (worlds, frames) = (s.world_count(), s.live_frames());
        // The second page is one byte too long: nothing may land.
        let too_long = vec![7u8; s.page_size() + 1];
        let err = s
            .commit_pages(base, &[(0, b"new".to_vec()), (1, too_long)])
            .unwrap_err();
        assert!(matches!(err, PageStoreError::OutOfPageBounds { .. }));
        assert_eq!(s.read_vec(base, 0, 0, 3).unwrap(), b"old");
        assert_eq!((s.world_count(), s.live_frames()), (worlds, frames));
        // A missing base is an error, not a stray fork.
        assert!(s.commit_pages(WorldId(999), &[]).is_err());
        assert_eq!(s.world_count(), worlds);
        // Accepted pages all land, and only in `base`.
        s.commit_pages(base, &[(0, b"new".to_vec()), (5, b"five".to_vec())])
            .unwrap();
        assert_eq!(s.read_vec(base, 0, 0, 3).unwrap(), b"new");
        assert_eq!(s.read_vec(base, 5, 0, 4).unwrap(), b"five");
        assert_eq!(s.read_vec(sibling, 0, 0, 3).unwrap(), b"old");
        assert_eq!(s.world_count(), worlds);
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn drop_world_releases_private_frames_only() {
        let s = store();
        let parent = s.create_world();
        s.write(parent, 0, 0, &[1]).unwrap();
        let child = s.fork_world(parent).unwrap();
        s.write(child, 1, 0, &[2]).unwrap();
        assert_eq!(s.live_frames(), 2);
        s.drop_world(child).unwrap();
        assert_eq!(
            s.live_frames(),
            1,
            "shared frame survives, private frame freed"
        );
        assert_eq!(s.read_vec(parent, 0, 0, 1).unwrap(), vec![1]);
    }

    #[test]
    fn operations_on_dead_world_fail() {
        let s = store();
        let w = s.create_world();
        s.drop_world(w).unwrap();
        assert!(matches!(
            s.write(w, 0, 0, &[1]),
            Err(PageStoreError::NoSuchWorld(_))
        ));
        assert!(matches!(
            s.read_vec(w, 0, 0, 1),
            Err(PageStoreError::NoSuchWorld(_))
        ));
        assert!(matches!(
            s.drop_world(w),
            Err(PageStoreError::NoSuchWorld(_))
        ));
        assert!(matches!(
            s.fork_world(w),
            Err(PageStoreError::NoSuchWorld(_))
        ));
    }

    #[test]
    fn write_fraction_accounting() {
        let s = store();
        let parent = s.create_world();
        for vpn in 0..10 {
            s.write(parent, vpn, 0, &[1]).unwrap();
        }
        let child = s.fork_world(parent).unwrap();
        for vpn in 0..3 {
            s.write(child, vpn, 0, &[2]).unwrap();
        }
        let ws = s.world_stats(child).unwrap();
        assert_eq!(ws.write_fraction(), Some(0.3));
    }

    #[test]
    fn diff_worlds_reports_divergence() {
        let s = store();
        let parent = s.create_world();
        s.write(parent, 0, 0, &[1]).unwrap();
        s.write(parent, 1, 0, &[1]).unwrap();
        let child = s.fork_world(parent).unwrap();
        s.write(child, 1, 0, &[2]).unwrap();
        s.write(child, 5, 0, &[2]).unwrap();
        assert_eq!(s.diff_worlds(parent, child).unwrap(), vec![1, 5]);
    }

    #[test]
    fn many_sibling_worlds_share_state() {
        let s = store();
        let parent = s.create_world();
        for vpn in 0..8 {
            s.write(parent, vpn, 0, &[0xEE]).unwrap();
        }
        let kids: Vec<_> = (0..16).map(|_| s.fork_world(parent).unwrap()).collect();
        assert_eq!(s.live_frames(), 8, "16 forks, zero page copies");
        for (i, &k) in kids.iter().enumerate() {
            s.write(k, 0, 0, &[i as u8]).unwrap();
        }
        assert_eq!(s.live_frames(), 8 + 16);
        // Eliminate all siblings.
        for &k in &kids {
            s.drop_world(k).unwrap();
        }
        assert_eq!(s.live_frames(), 8);
        assert_eq!(s.stats().worlds_dropped, 16);
    }

    #[test]
    fn default_page_size_store() {
        let s = PageStore::new(PAGE_SIZE_DEFAULT);
        assert_eq!(s.page_size(), 4096);
        let w = s.create_world();
        s.write(w, 0, 4090, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(s.read_vec(w, 0, 4090, 6).unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn parent_of_tracks_lineage() {
        let s = store();
        let a = s.create_world();
        let b = s.fork_world(a).unwrap();
        assert_eq!(s.parent_of(a).unwrap(), None);
        assert_eq!(s.parent_of(b).unwrap(), Some(a));
    }

    #[test]
    fn sharing_histogram_reflects_cow_structure() {
        let s = store();
        let parent = s.create_world();
        for vpn in 0..4 {
            s.write(parent, vpn, 0, &[1]).unwrap();
        }
        assert_eq!(
            s.sharing_histogram(),
            vec![4],
            "4 frames, each singly referenced"
        );
        assert_eq!(s.sharing_factor(), 1.0);

        let c1 = s.fork_world(parent).unwrap();
        let _c2 = s.fork_world(parent).unwrap();
        // All 4 frames now shared by 3 worlds.
        assert_eq!(s.sharing_histogram(), vec![0, 0, 4]);
        assert_eq!(s.sharing_factor(), 3.0);

        s.write(c1, 0, 0, &[2]).unwrap();
        // Frame 0 split: one private (c1) + one shared by 2 (parent, c2);
        // frames 1..3 still shared by 3.
        let h = s.sharing_histogram();
        assert_eq!(h, vec![1, 1, 3]);
        assert!(s.sharing_factor() > 2.0 && s.sharing_factor() < 3.0);
    }

    #[test]
    fn concurrent_children_do_not_interfere() {
        use std::thread;
        let s = PageStore::new(256);
        let parent = s.create_world();
        for vpn in 0..32 {
            s.write(parent, vpn, 0, &[0xFF]).unwrap();
        }
        let kids: Vec<_> = (0..4).map(|_| s.fork_world(parent).unwrap()).collect();
        let handles: Vec<_> = kids
            .iter()
            .map(|&k| {
                let s = s.clone();
                thread::spawn(move || {
                    for vpn in 0..32u64 {
                        s.write(k, vpn, 0, &[k.raw() as u8]).unwrap();
                        let got = s.read_vec(k, vpn, 0, 1).unwrap();
                        assert_eq!(got, vec![k.raw() as u8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Parent still sees pre-fork bytes everywhere.
        for vpn in 0..32 {
            assert_eq!(s.read_vec(parent, vpn, 0, 1).unwrap(), vec![0xFF]);
        }
    }

    #[test]
    fn worlds_spread_across_shards() {
        let s = store();
        let ids: Vec<_> = (0..NUM_SHARDS as u64).map(|_| s.create_world()).collect();
        let shards: std::collections::HashSet<usize> =
            ids.iter().map(|w| shard_index(w.raw())).collect();
        assert_eq!(
            shards.len(),
            NUM_SHARDS,
            "consecutive ids must hit distinct shards"
        );
        assert_eq!(s.shard_count(), NUM_SHARDS);
    }

    #[test]
    fn refcount_invariant_holds_through_lifecycle() {
        let s = store();
        let parent = s.create_world();
        for vpn in 0..6 {
            s.write(parent, vpn, 0, &[1]).unwrap();
        }
        assert_eq!(s.verify_refcounts().unwrap(), 6);
        let kids: Vec<_> = (0..3).map(|_| s.fork_world(parent).unwrap()).collect();
        assert_eq!(s.verify_refcounts().unwrap(), 6);
        for (i, &k) in kids.iter().enumerate() {
            s.write(k, i as u64, 0, &[2]).unwrap();
        }
        assert_eq!(s.verify_refcounts().unwrap(), 9);
        s.adopt(parent, kids[0]).unwrap();
        s.drop_world(kids[1]).unwrap();
        s.drop_world(kids[2]).unwrap();
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn resident_frames_split_private_from_shared() {
        let s = store();
        let parent = s.create_world();
        s.write(parent, 0, 0, &[1]).unwrap();
        s.write(parent, 1, 0, &[2]).unwrap();
        let r = s.resident_frames_of(parent).unwrap();
        assert_eq!((r.private, r.shared), (2, 0));
        let child = s.fork_world(parent).unwrap();
        let r = s.resident_frames_of(child).unwrap();
        assert_eq!((r.private, r.shared), (0, 2), "inherited pages are shared");
        s.write(child, 0, 0, &[9]).unwrap();
        let r = s.resident_frames_of(child).unwrap();
        assert_eq!((r.private, r.shared), (1, 1), "COW page is now private");
        assert_eq!(r.total(), 2);
        s.drop_world(child).unwrap();
        let r = s.resident_frames_of(parent).unwrap();
        assert_eq!((r.private, r.shared), (2, 0), "sole owner again");
        assert!(s.resident_frames_of(WorldId::from_raw(9999)).is_err());
    }

    #[test]
    fn eliminated_sibling_frames_are_recycled() {
        // The pool turns elimination into allocator-free CoW: a dropped
        // sibling's private pages come back as staging buffers.
        let s = store();
        let parent = s.create_world();
        for vpn in 0..4 {
            s.write(parent, vpn, 0, &[1]).unwrap();
        }
        let a = s.fork_world(parent).unwrap();
        let b = s.fork_world(parent).unwrap();
        for vpn in 0..4 {
            s.write(a, vpn, 0, &[2]).unwrap();
        }
        s.drop_world(a).unwrap(); // 4 private frames -> pool
        let before = s.stats();
        for vpn in 0..4 {
            s.write(b, vpn, 0, &[3]).unwrap();
        }
        let d = s.stats().delta_since(&before);
        assert_eq!(d.cow_faults, 4);
        assert_eq!(
            d.frames_recycled, 4,
            "every CoW buffer must come from the pool"
        );
    }

    #[test]
    fn obs_event_stream_tracks_frame_lifecycle() {
        // ZeroFill -> CowCopy -> FrameFree, in order, and the
        // frames_resident gauge follows from event arithmetic alone —
        // which is what makes JSONL replay of the gauge exact.
        let (obs, ring) = Registry::with_ring(64);
        let s = PageStore::with_obs(64, obs.clone());
        let parent = s.create_world();
        s.write(parent, 0, 0, &[1]).unwrap();
        let child = s.fork_world(parent).unwrap();
        s.write(child, 0, 0, &[2]).unwrap();
        s.drop_world(child).unwrap();
        let events = ring.events();
        let kinds: Vec<&'static str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["zero_fill", "cow_copy", "frame_free"]);
        assert_eq!(
            events[2].kind,
            EventKind::FrameFree { frames: 1 },
            "dropping the child frees exactly its private copy"
        );
        let stats = obs.stats().unwrap();
        assert_eq!(stats.pagestore.zero_fills.get(), 1);
        assert_eq!(stats.pagestore.bytes_copied.get(), 64, "one 64-byte page");
        assert_eq!(stats.pagestore.frames_freed.get(), 1);
        let gauge = stats.frames_resident.get();
        assert_eq!(gauge as usize, s.live_frames());
        // Replaying the same events reconstructs the same gauge.
        let replayed = worlds_obs::replay(events.iter());
        assert_eq!(replayed.frames_resident.get(), gauge);
    }

    #[test]
    fn writes_behave_alike_alone_in_a_shard_and_sharing_one() {
        let s = store();
        // NUM_SHARDS + 1 worlds: the first and last hash to one shard,
        // the second has its shard to itself.
        let worlds: Vec<_> = (0..=NUM_SHARDS).map(|_| s.create_world()).collect();
        let (a, b, alone) = (worlds[0], worlds[NUM_SHARDS], worlds[1]);
        assert_eq!(shard_index(a.raw()), shard_index(b.raw()));
        assert_ne!(shard_index(a.raw()), shard_index(alone.raw()));
        for w in [alone, a, b] {
            let before = s.stats();
            s.write(w, 0, 0, &[1]).unwrap();
            s.write(w, 0, 1, &[2]).unwrap();
            let d = s.stats().delta_since(&before);
            assert_eq!((d.writes, d.zero_fills, d.cow_faults), (2, 1, 0));
            assert_eq!(d.writes_solo, d.writes);
            assert_eq!(s.read_vec(w, 0, 0, 2).unwrap(), vec![1, 2]);
            // A CoW fault, then an in-place rewrite of the private copy.
            let child = s.fork_world(w).unwrap();
            let before = s.stats();
            s.write(child, 0, 0, &[9]).unwrap();
            s.write(child, 0, 0, &[7]).unwrap();
            let d = s.stats().delta_since(&before);
            assert_eq!((d.writes, d.zero_fills, d.cow_faults), (2, 0, 1));
            assert_eq!(s.read_vec(w, 0, 0, 2).unwrap(), vec![1, 2]);
            assert_eq!(s.read_vec(child, 0, 0, 2).unwrap(), vec![7, 2]);
            s.verify_refcounts().unwrap();
        }
    }

    #[test]
    fn crowded_concurrent_writers_stay_isolated() {
        use std::thread;
        let s = PageStore::new(256);
        // Fill every shard so every writer shares its shard lock.
        let _ballast: Vec<_> = (0..NUM_SHARDS as u64).map(|_| s.create_world()).collect();
        let parent = s.create_world();
        for vpn in 0..16 {
            s.write(parent, vpn, 0, &[0xAB]).unwrap();
        }
        let kids: Vec<_> = (0..4).map(|_| s.fork_world(parent).unwrap()).collect();
        let handles: Vec<_> = kids
            .iter()
            .map(|&k| {
                let s = s.clone();
                thread::spawn(move || {
                    for vpn in 0..16u64 {
                        s.write(k, vpn, 0, &[k.raw() as u8]).unwrap();
                        assert_eq!(s.read_vec(k, vpn, 0, 1).unwrap(), vec![k.raw() as u8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for vpn in 0..16 {
            assert_eq!(s.read_vec(parent, vpn, 0, 1).unwrap(), vec![0xAB]);
        }
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn drop_worlds_matches_sequential_drop_world() {
        // Two identical stores, one torn down in a batch and one in a
        // loop: same counters, same events — but the batch returns every
        // freed frame under one recycler acquisition.
        let build = || {
            let (obs, ring) = Registry::with_ring(256);
            let s = PageStore::with_obs(64, obs);
            let parent = s.create_world();
            for vpn in 0..4 {
                s.write(parent, vpn, 0, &[1]).unwrap();
            }
            let kids: Vec<_> = (0..6)
                .map(|_| {
                    let k = s.fork_world(parent).unwrap();
                    s.write(k, 9, 0, &[2]).unwrap();
                    s.write(k, 10, 0, &[3]).unwrap();
                    k
                })
                .collect();
            (s, kids, ring)
        };
        let (batched, kids_b, ring_b) = build();
        let (sequential, kids_s, ring_s) = build();

        let before = batched.stats();
        assert_eq!(batched.drop_worlds(&kids_b), 6);
        let db = batched.stats().delta_since(&before);

        let before = sequential.stats();
        for &k in &kids_s {
            sequential.drop_world(k).unwrap();
        }
        let ds = sequential.stats().delta_since(&before);

        assert_eq!(db.worlds_dropped, ds.worlds_dropped);
        assert_eq!(db.frames_freed, ds.frames_freed);
        assert_eq!(db.recycler_locks, 1, "whole batch under one acquisition");
        assert_eq!(ds.recycler_locks, 6, "sequential pays one per world");
        batched.verify_refcounts().unwrap();

        // Same event stream: batching must be invisible to replay. The
        // two stores allocate identical world ids, so the streams match
        // exactly.
        let snap = |events: Vec<Event>| -> Vec<(EventKind, u64, Option<u64>)> {
            events
                .iter()
                .map(|e| (e.kind.clone(), e.world, e.parent))
                .collect()
        };
        assert_eq!(
            snap(ring_b.events()),
            snap(ring_s.events()),
            "batched elimination replays identically"
        );

        // Dropping a missing world is skipped, not an error.
        assert_eq!(batched.drop_worlds(&kids_b), 0);
    }

    #[test]
    fn adopt_emits_frame_free_for_replaced_frames() {
        let (obs, ring) = Registry::with_ring(64);
        let s = PageStore::with_obs(64, obs.clone());
        let parent = s.create_world();
        s.write(parent, 0, 0, &[1]).unwrap();
        let child = s.fork_world(parent).unwrap();
        s.write(child, 0, 0, &[2]).unwrap();
        s.adopt(parent, child).unwrap();
        let events = ring.events();
        assert_eq!(
            events.last().unwrap().kind,
            EventKind::FrameFree { frames: 1 },
            "adopt must announce the parent's replaced frame"
        );
        assert_eq!(
            obs.stats().unwrap().frames_resident.get() as usize,
            s.live_frames()
        );
    }

    #[test]
    fn dedupe_reshares_identical_sibling_pages() {
        let s = store();
        s.set_dedupe(true);
        let parent = s.create_world();
        s.write(parent, 0, 0, &[7u8; 64]).unwrap();
        let a = s.fork_world(parent).unwrap();
        let b = s.fork_world(parent).unwrap();
        // Both siblings write the same bytes to the same page: the second
        // COW commit should re-share the first sibling's frame.
        s.write(a, 0, 0, &[9u8; 64]).unwrap();
        let before = s.stats();
        s.write(b, 0, 0, &[9u8; 64]).unwrap();
        let d = s.stats().delta_since(&before);
        assert_eq!(d.dedupe_hits, 1, "identical commit must re-share");
        assert_eq!(d.bytes_deduped, 64);
        assert_eq!(d.bytes_copied, 0, "no page materialised");
        assert_eq!(s.read_vec(a, 0, 0, 64).unwrap(), vec![9u8; 64]);
        assert_eq!(s.read_vec(b, 0, 0, 64).unwrap(), vec![9u8; 64]);
        // Writes diverge after the share: still COW-isolated.
        s.write(a, 0, 0, &[1]).unwrap();
        assert_eq!(s.read_vec(b, 0, 0, 1).unwrap(), vec![9]);
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn dedupe_zero_fill_shares_fresh_identical_pages() {
        let s = store();
        s.set_dedupe(true);
        let w = s.create_world();
        let v = s.create_world();
        s.write(w, 0, 0, &[5u8; 64]).unwrap();
        let before = s.stats();
        s.write(v, 3, 0, &[5u8; 64]).unwrap();
        let d = s.stats().delta_since(&before);
        assert_eq!(d.dedupe_hits, 1, "fresh page matches sealed frame");
        assert_eq!(d.zero_fills, 0);
        assert_eq!(s.live_frames(), 1, "one frame backs both worlds");
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn forced_hash_collision_is_never_wrongly_shared() {
        // Poison the content index: seal world A's frame, then overwrite
        // the index entry for *different* bytes with A's frame id. A
        // commit of those different bytes now gets an index hit whose
        // bytes do not match — the full-byte verify must refuse the
        // share and fall back to a real copy.
        let s = store();
        s.set_dedupe(true);
        let a = s.create_world();
        s.write(a, 0, 0, &[0xAAu8; 64]).unwrap();
        let frame_a = with_world(&s, a, |w| w.map.get(0).unwrap());
        let evil = vec![0xBBu8; 64];
        s.frames.index_insert(frame_a, page_hash(&evil));

        let b = s.create_world();
        let before = s.stats();
        s.write(b, 7, 0, &evil).unwrap();
        let d = s.stats().delta_since(&before);
        assert_eq!(d.dedupe_hits, 0, "colliding entry must fail byte verify");
        assert_eq!(s.read_vec(b, 7, 0, 64).unwrap(), evil);
        assert_eq!(s.read_vec(a, 0, 0, 64).unwrap(), vec![0xAAu8; 64]);
        assert_eq!(s.live_frames(), 2, "a real frame was materialised");
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn dedupe_off_never_touches_the_index() {
        let s = store();
        let a = s.create_world();
        let b = s.create_world();
        s.write(a, 0, 0, &[3u8; 64]).unwrap();
        s.write(b, 0, 0, &[3u8; 64]).unwrap();
        let st = s.stats();
        assert_eq!(st.dedupe_hits, 0);
        assert_eq!(st.bytes_deduped, 0);
        assert_eq!(s.live_frames(), 2);
    }

    #[test]
    fn in_place_write_after_seal_invalidates_and_counts() {
        let s = store();
        s.set_dedupe(true);
        let w = s.create_world();
        s.write(w, 0, 0, &[1u8; 64]).unwrap(); // sealed full-page write
        let before = s.stats();
        s.write(w, 0, 3, b"mutate").unwrap(); // partial in-place write
        let d = s.stats().delta_since(&before);
        assert_eq!(d.hash_invalidations, 1, "seal retracted on first mutation");
        // A second partial write hits an already-unsealed frame: no-op.
        s.write(w, 0, 9, b"again").unwrap();
        assert_eq!(s.stats().hash_invalidations, 1);
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn identical_full_page_rewrite_keeps_the_seal() {
        let s = store();
        s.set_dedupe(true);
        let w = s.create_world();
        s.write(w, 0, 0, &[4u8; 64]).unwrap();
        let before = s.stats();
        s.write(w, 0, 0, &[4u8; 64]).unwrap(); // same bytes, same hash
        let d = s.stats().delta_since(&before);
        assert_eq!(d.hash_invalidations, 0, "same-hash reseal skips retraction");
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn fork_moves_no_frame_count_and_a_write_copies_one_leaf() {
        use crate::map::LEAF_WIDTH;
        const PAGES: u64 = 2048;
        let s = store();
        let root = s.create_world();
        for vpn in 0..PAGES {
            s.write(root, vpn, 0, &[vpn as u8]).unwrap();
        }
        let leaves = PAGES as usize / LEAF_WIDTH;
        let refs = |w| -> Vec<u32> {
            with_world(&s, w, |w| {
                w.map.iter().map(|(_, f)| s.frames.refs(f)).collect()
            })
        };
        assert_eq!(refs(root), vec![1; PAGES as usize]);

        let child = s.fork_world(root).unwrap();
        assert_eq!(refs(root), vec![1; PAGES as usize], "fork touches no frame");
        assert_eq!(shared_leaves(&s, root, child), leaves);
        assert_eq!(s.world_stats(child).unwrap().pages_inherited, PAGES);

        // Eight writes, two of them into one leaf: seven leaves copied.
        let w = LEAF_WIDTH as u64;
        for vpn in [
            0,
            w + 1,
            5 * w,
            9 * w + 3,
            9 * w + 4,
            20 * w,
            40 * w,
            PAGES - 1,
        ] {
            s.write(child, vpn, 0, &[0xEE]).unwrap();
        }
        assert_eq!(shared_leaves(&s, root, child), leaves - 7);
        // A copied leaf re-references its untouched neighbours; the page
        // written is the child's alone, and the parent's original too.
        let after = refs(child);
        assert_eq!(
            after.iter().filter(|&&r| r == 2).count(),
            7 * LEAF_WIDTH - 8
        );
        assert_eq!(
            after.iter().filter(|&&r| r == 1).count(),
            PAGES as usize - 7 * LEAF_WIDTH + 8
        );
        assert_eq!(s.live_frames(), PAGES as usize + 8);
        s.verify_refcounts().unwrap();

        s.drop_world(child).unwrap();
        assert_eq!(refs(root), vec![1; PAGES as usize]);
        assert_eq!(s.live_frames(), PAGES as usize);
        s.verify_refcounts().unwrap();
    }

    #[test]
    fn verify_catches_a_leaked_frame_reference_and_a_leaked_leaf_reference() {
        let s = store();
        let root = s.create_world();
        for vpn in 0..40 {
            s.write(root, vpn, 0, &[1]).unwrap();
        }
        let child = s.fork_world(root).unwrap();
        s.write(child, 3, 0, &[2]).unwrap();
        s.verify_refcounts().unwrap();

        // A reference no leaf slot accounts for.
        let frame = with_world(&s, root, |w| w.map.get(7).unwrap());
        s.frames.incref(frame);
        let err = s.verify_refcounts().unwrap_err();
        assert!(err.contains("leaf slots"), "{err}");
        s.frames.decref(frame);
        s.verify_refcounts().unwrap();

        // A handle no map accounts for — on a shared leaf, then on one
        // the child copied for itself.
        for (world, vpn) in [(root, 39), (child, 3)] {
            let leaked = with_world(&s, world, |w| {
                let key_order = (vpn as usize) / crate::map::LEAF_WIDTH;
                Arc::clone(w.map.leaves().nth(key_order).unwrap())
            });
            let err = s.verify_refcounts().unwrap_err();
            assert!(err.contains("held by"), "{err}");
            drop(leaked);
            s.verify_refcounts().unwrap();
        }
    }

    #[test]
    fn residency_and_histogram_agree_with_a_per_world_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        // The oracle is the flat model: each world maps vpn → page token,
        // a write mints a token unless the world is the page's only
        // mapper. Private/shared and the histogram follow from counting
        // mappers per token — no leaves, no refcounts.
        type Flat = BTreeMap<Vpn, u64>;
        let mappers = |worlds: &[(WorldId, Flat)]| -> BTreeMap<u64, usize> {
            let mut n = BTreeMap::new();
            for token in worlds.iter().flat_map(|(_, m)| m.values()) {
                *n.entry(*token).or_insert(0) += 1;
            }
            n
        };
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(0x0c1e_0000 + seed);
            let s = store();
            let mut worlds: Vec<(WorldId, Flat)> = vec![(s.create_world(), Flat::new())];
            let mut next_token = 0u64;
            for step in 0..300 {
                let at = rng.gen_range(0..worlds.len());
                match rng.gen_range(0..10u32) {
                    0 | 1 if worlds.len() < 6 => {
                        let child = s.fork_world(worlds[at].0).unwrap();
                        let flat = worlds[at].1.clone();
                        worlds.push((child, flat));
                    }
                    2 if at != 0 => {
                        let (w, _) = worlds.remove(at);
                        s.drop_world(w).unwrap();
                    }
                    3 if at != 0 => {
                        // Adopt into the parent, if it is still around.
                        let parent = s.parent_of(worlds[at].0).unwrap().unwrap();
                        if let Some(p) = worlds.iter().position(|(w, _)| *w == parent) {
                            let (child, flat) = worlds.remove(at);
                            s.adopt(parent, child).unwrap();
                            worlds[p - (p > at) as usize].1 = flat;
                        }
                    }
                    _ => {
                        // Three leaves' worth of vpns, so leaf sharing matters.
                        let vpn = rng.gen_range(0..3 * crate::map::LEAF_WIDTH as u64);
                        s.write(worlds[at].0, vpn, 0, &[step as u8]).unwrap();
                        let count = mappers(&worlds);
                        let flat = &mut worlds[at].1;
                        if flat.get(&vpn).is_none_or(|t| count[t] > 1) {
                            flat.insert(vpn, next_token);
                            next_token += 1;
                        }
                    }
                }
                let count = mappers(&worlds);
                for (w, flat) in &worlds {
                    let private = flat.values().filter(|t| count[t] == 1).count() as u64;
                    let r = s.resident_frames_of(*w).unwrap();
                    assert_eq!(
                        (r.private, r.shared),
                        (private, flat.len() as u64 - private),
                        "seed {seed} step {step} world {}",
                        w.raw()
                    );
                }
                let mut hist = Vec::new();
                for &n in count.values() {
                    if hist.len() < n {
                        hist.resize(n, 0);
                    }
                    hist[n - 1] += 1;
                }
                assert_eq!(s.sharing_histogram(), hist, "seed {seed} step {step}");
                assert_eq!(s.live_frames(), count.len());
            }
            s.verify_refcounts().unwrap();
        }
    }
}
