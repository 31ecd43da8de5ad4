//! The frame table: reference-counted physical pages.
//!
//! Worlds share frames until someone writes. A frame's reference count is
//! the number of page-map *leaf slots* naming it (see the `map` module): a
//! leaf that several worlds hold counts once, however many they are. So
//! the count alone no longer says "private" — a write may mutate in place
//! only when the path to the slot is exclusively the writer's *and* the
//! count is 1; the store checks the path, [`FrameTable::write_if_private`]
//! the count. Either one failing means copy — the core of copy-on-write.
//!
//! The table is concurrent and its slot-access path is lock-free: slots
//! live in fixed-size chunks that are allocated once and never move, so
//! reaching a slot is two array indexings and one `OnceLock` load — no
//! table-wide lock. Reference counts are atomics; page contents sit behind
//! an `Arc` guarded by a tiny per-frame mutex; freed page buffers are
//! recycled through a bounded pool so sibling elimination returns memory to
//! the next fault instead of the allocator. The store's shard locks (not
//! this table) decide *when* a frame may be mutated; this table only makes
//! each individual operation atomic.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::content::ContentIndex;
use crate::page::PageData;

/// Index of a physical frame in the store's frame table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub(crate) u32);

impl FrameId {
    /// Raw index (exposed for diagnostics and tests).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Freed page buffers kept for reuse; beyond this the allocator takes over.
const POOL_MAX: usize = 256;

/// The recycling state behind the table's single auxiliary mutex: the
/// free list of slot indices and the bounded pool of page buffers. They
/// always travel together — freeing a frame returns both its slot and
/// (usually) its buffer; allocation consumes a slot and the store's
/// staging path consumes a buffer — so one lock covers both and a
/// frame-free is a single acquisition instead of two. The lock is a
/// documented *leaf* in the store's hierarchy: it is never held while
/// acquiring a shard lock, a per-slot data mutex, or anything else.
#[derive(Debug, Default)]
struct Recycler {
    /// Slot indices whose frames have been freed, ready for reuse.
    free: Vec<u32>,
    /// Freed page buffers kept for the next fault (bounded by [`POOL_MAX`]).
    pool: Vec<PageData>,
}

/// Slots per chunk (chunks are allocated whole and never move).
const CHUNK_SIZE: usize = 1024;

/// Upper bound on chunks: 4 Mi frames, far beyond any workload here.
const MAX_CHUNKS: usize = 4096;

/// One slot in the frame table. Slots are never removed, only recycled:
/// `refs == 0` means the slot is on the free list and `data` is `None`.
#[derive(Debug)]
struct FrameSlot {
    /// Number of page-map leaf slots naming this frame, across all leaves.
    refs: AtomicU32,
    /// The page contents. An `Arc` so readers can snapshot a page (clone the
    /// `Arc` under this mutex, copy bytes after releasing it) while writers
    /// use `Arc::make_mut` — a concurrent reader at worst keeps the pre-write
    /// snapshot, never a torn page.
    data: Mutex<Option<Arc<PageData>>>,
    /// Content hash this frame is published under in the content index
    /// (0 = not indexed). The back-pointer that lets an in-place write or
    /// a free clear its own index entry without a reverse scan.
    content_hash: AtomicU64,
}

impl FrameSlot {
    // Used only as an array-initialiser template; every element becomes an
    // independent slot, so the shared-const interior-mutability pitfall
    // (mutating through the const itself) cannot arise.
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: FrameSlot = FrameSlot {
        refs: AtomicU32::new(0),
        data: Mutex::new(None),
        content_hash: AtomicU64::new(0),
    };
}

/// A reference-counted table of physical frames with a free list and a
/// bounded buffer pool. All operations take `&self`; see the module docs
/// for the division of labour between this table and the store's shards.
#[derive(Debug)]
pub(crate) struct FrameTable {
    /// Chunked slot arena. A chunk, once initialised, is never moved or
    /// freed, so `&FrameSlot` references obtained through it stay valid for
    /// the table's lifetime — that is what makes slot access lock-free.
    chunks: Vec<OnceLock<Box<[FrameSlot; CHUNK_SIZE]>>>,
    /// High-water mark: slots handed out so far (free-listed ones included).
    high: AtomicUsize,
    live: AtomicUsize,
    /// Free list + buffer pool under one leaf mutex (see [`Recycler`]).
    recycler: Mutex<Recycler>,
    /// The content index (hash → frame hints), allocated on first insert
    /// so stores that never enable dedupe pay nothing.
    index: OnceLock<ContentIndex>,
    /// Times the recycler mutex has been acquired — the quantity batched
    /// elimination amortizes. Every acquisition goes through
    /// [`FrameTable::lock_recycler`] so the count is exact.
    recycler_locks: AtomicU64,
}

impl Default for FrameTable {
    fn default() -> Self {
        FrameTable::new()
    }
}

impl FrameTable {
    pub(crate) fn new() -> Self {
        FrameTable {
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
            high: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            recycler: Mutex::new(Recycler::default()),
            index: OnceLock::new(),
            recycler_locks: AtomicU64::new(0),
        }
    }

    /// The one way to acquire the recycler mutex, so
    /// [`FrameTable::recycler_lock_count`] is an exact acquisition count.
    fn lock_recycler(&self) -> parking_lot::MutexGuard<'_, Recycler> {
        self.recycler_locks.fetch_add(1, Ordering::Relaxed);
        self.recycler.lock()
    }

    /// How many times the recycler mutex has been acquired so far.
    pub(crate) fn recycler_lock_count(&self) -> u64 {
        self.recycler_locks.load(Ordering::Relaxed)
    }

    /// Lock-free slot access: two indexings and one `OnceLock` load.
    fn slot(&self, id: FrameId) -> &FrameSlot {
        let idx = id.0 as usize;
        let chunk = self.chunks[idx / CHUNK_SIZE]
            .get()
            .expect("frame beyond initialised chunks");
        &chunk[idx % CHUNK_SIZE]
    }

    /// Allocate a frame holding `data`, with an initial reference count of 1.
    pub(crate) fn alloc(&self, data: PageData) -> FrameId {
        let arc = Arc::new(data);
        self.live.fetch_add(1, Ordering::Relaxed);
        // Bind the pop so the recycler guard drops here: chunk
        // initialisation below must not run under it, and frame-table
        // locks are leaves that never nest (see the store's lock
        // hierarchy).
        let popped = self.lock_recycler().free.pop();
        let idx = match popped {
            Some(idx) => idx,
            None => {
                let idx = self.high.fetch_add(1, Ordering::Relaxed);
                assert!(idx < MAX_CHUNKS * CHUNK_SIZE, "frame table exhausted");
                self.chunks[idx / CHUNK_SIZE]
                    .get_or_init(|| Box::new([FrameSlot::EMPTY; CHUNK_SIZE]));
                idx as u32
            }
        };
        let slot = self.slot(FrameId(idx));
        let mut d = slot.data.lock();
        debug_assert!(d.is_none(), "allocating over a live frame");
        debug_assert_eq!(
            slot.content_hash.load(Ordering::Relaxed),
            0,
            "recycled slot still indexed"
        );
        *d = Some(arc);
        slot.refs.store(1, Ordering::Release);
        FrameId(idx)
    }

    /// Bump the reference count (one more leaf slot now names this frame:
    /// a path-copy duplicated the slot). `Relaxed` suffices: the caller
    /// already holds a reference (it read the frame id out of a leaf it
    /// holds, under a shard lock), so this can never race with the final
    /// decref — the same argument `Arc::clone` uses for its relaxed
    /// increment.
    pub(crate) fn incref(&self, id: FrameId) {
        let prev = self.slot(id).refs.fetch_add(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "incref of a freed frame {}", id.0);
    }

    /// Drop one reference; frees the frame when the count reaches zero (the
    /// buffer goes to the recycle pool if no reader still holds it).
    /// Returns `true` if the frame was freed.
    pub(crate) fn decref(&self, id: FrameId) -> bool {
        let mut freed = Vec::new();
        let hit_zero = self.decref_deferred(id, &mut freed);
        // One acquisition frees both halves: the slot index always goes
        // back, the buffer only if no reader still holds its `Arc`.
        self.recycle_freed(freed);
        hit_zero
    }

    /// Like [`FrameTable::decref`], but a frame that reaches zero is only
    /// *detached* (slot emptied, live count dropped) and pushed onto
    /// `freed`; the recycler is not touched. The caller hands the
    /// accumulated list to [`FrameTable::recycle_freed`] once, so tearing
    /// down any number of frames costs one recycler acquisition instead
    /// of one per frame. Returns `true` if the frame reached zero.
    pub(crate) fn decref_deferred(
        &self,
        id: FrameId,
        freed: &mut Vec<(u32, Arc<PageData>)>,
    ) -> bool {
        let slot = self.slot(id);
        let prev = slot.refs.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "decref of a freed frame {}", id.0);
        if prev != 1 {
            return false;
        }
        let data = slot.data.lock().take().expect("live frame without data");
        self.deindex(slot, id);
        self.live.fetch_sub(1, Ordering::Relaxed);
        freed.push((id.0, data));
        true
    }

    /// Return frames detached by [`FrameTable::decref_deferred`] to the
    /// recycler under a single lock acquisition. Empty lists cost nothing.
    pub(crate) fn recycle_freed(&self, freed: Vec<(u32, Arc<PageData>)>) {
        if freed.is_empty() {
            return;
        }
        let mut rec = self.lock_recycler();
        for (idx, data) in freed {
            if let Ok(page) = Arc::try_unwrap(data) {
                if rec.pool.len() < POOL_MAX {
                    rec.pool.push(page);
                }
            }
            rec.free.push(idx);
        }
    }

    /// Current reference count of a frame (0 for a freed one).
    pub(crate) fn refs(&self, id: FrameId) -> u32 {
        self.slot(id).refs.load(Ordering::Acquire)
    }

    /// A shared snapshot of a frame's page data. Cloning the `Arc` is O(1);
    /// callers copy bytes out of it after every lock is released.
    pub(crate) fn data_arc(&self, id: FrameId) -> Arc<PageData> {
        self.slot(id)
            .data
            .lock()
            .as_ref()
            .expect("reference to a freed frame")
            .clone()
    }

    /// The private-page write fast path, fused into one slot visit: if the
    /// frame's refcount is exactly 1, overwrite `bytes` at `offset` in
    /// place and return `Some(invalidated)` — `invalidated` is whether the
    /// frame had a content-index entry that this mutation just cleared.
    /// Otherwise touch nothing and return `None`. The caller must hold the
    /// writing world's shard lock (read suffices) and must have seen that
    /// the world's path to this slot is exclusive: the one reference is
    /// then the writer's own slot, and it cannot gain a *lasting* second
    /// one mid-write — a path-copy needs another holder of the leaf, and
    /// one can only appear by forking the writer, under that shard's write
    /// lock. A content-index probe, however, can raise the count from
    /// another shard — which is why it is re-checked under the data
    /// mutex: the probe increfs before locking this mutex to verify
    /// bytes, so whoever takes the mutex second sees the other's claim and
    /// backs off. A reader concurrently holding the page's `Arc` forces
    /// `make_mut` to copy, which keeps that reader's snapshot consistent.
    /// `seal` is the precomputed hash of the page's *resulting* bytes,
    /// passed only for full-page writes with dedupe on: the frame is then
    /// resealed into the index under the same mutex hold (the bytes are
    /// exactly the caller's buffer and cannot change until the mutex is
    /// released) — the `put_bytes` full-page seal point.
    pub(crate) fn write_if_private(
        &self,
        id: FrameId,
        offset: usize,
        bytes: &[u8],
        seal: Option<u64>,
    ) -> Option<bool> {
        let slot = self.slot(id);
        if slot.refs.load(Ordering::Acquire) != 1 {
            return None;
        }
        let mut guard = slot.data.lock();
        // Re-check under the mutex: a dedupe probe may have verified this
        // page's bytes and taken a reference since the load above. Writing
        // in place now would mutate a page another world just agreed to
        // share, so treat the frame as shared and let the caller CoW.
        if slot.refs.load(Ordering::Acquire) != 1 {
            return None;
        }
        let arc = guard.as_mut().expect("write to a freed frame");
        Arc::make_mut(arc).bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        if seal.is_some() && seal == Some(slot.content_hash.load(Ordering::Relaxed)) {
            // Rewriting identical full-page content over a still-valid
            // seal: the entry is already right, leave it be.
            return Some(false);
        }
        // The bytes no longer match the published hash; retract the index
        // entry *before* releasing the mutex so a probe serialised behind
        // us verifies against the new bytes and misses.
        let invalidated = self.deindex(slot, id);
        if let Some(hash) = seal {
            let ix = self.index.get_or_init(ContentIndex::new);
            slot.content_hash.store(hash, Ordering::Release);
            ix.insert(hash, id.0);
        }
        Some(invalidated)
    }

    /// Retract `slot`'s content-index entry, if it has one. Returns
    /// whether an entry was cleared.
    fn deindex(&self, slot: &FrameSlot, id: FrameId) -> bool {
        let hash = slot.content_hash.swap(0, Ordering::AcqRel);
        if hash == 0 {
            return false;
        }
        if let Some(ix) = self.index.get() {
            ix.clear(hash, id.0);
        }
        true
    }

    /// Publish `id` in the content index under `hash`. The caller must
    /// know the frame's bytes currently hash to `hash` and hold a lock
    /// that keeps them stable (the store's shard lock of a world mapping
    /// the frame).
    pub(crate) fn index_insert(&self, id: FrameId, hash: u64) {
        debug_assert_ne!(hash, 0, "0 is the not-indexed sentinel");
        let ix = self.index.get_or_init(ContentIndex::new);
        self.slot(id).content_hash.store(hash, Ordering::Release);
        ix.insert(hash, id.0);
    }

    /// Dedupe probe for a copying write: if the index hints at a frame for
    /// `hash` whose full bytes equal `bytes`, take a reference on it and
    /// return it. Byte verification and the incref happen under the
    /// frame's data mutex, so a racing in-place write either completes
    /// before the compare (and the stale hint misses) or backs off when it
    /// sees the raised count. **Must be called under the writing world's
    /// shard write lock** — the incref is then invisible to
    /// [`crate::PageStore::verify_refcounts`], which holds every shard
    /// lock. A miss costs one index load; ref traffic happens only on a
    /// verified hit.
    pub(crate) fn dedupe_lookup(&self, hash: u64, bytes: &[u8]) -> Option<FrameId> {
        let candidate = FrameId(self.index.get()?.lookup(hash)?);
        let slot = self.slot(candidate);
        let guard = slot.data.lock();
        let data = guard.as_ref()?; // freed since the hint was published
        if data.bytes() != bytes {
            return None; // hash collision or stale entry: never share
        }
        self.try_incref(slot, candidate)
    }

    /// CAS-incref that refuses a freed frame: succeeds only from a
    /// nonzero count, so it can never resurrect a slot whose last
    /// reference is being dropped (the racing `decref`'s `fetch_sub`
    /// either lands first — we observe 0 and miss — or sees our raised
    /// count and leaves the frame alive). AcqRel on success so a
    /// `write_if_private` that observes the raised count also observes
    /// everything that led to this share.
    fn try_incref(&self, slot: &FrameSlot, id: FrameId) -> Option<FrameId> {
        let mut refs = slot.refs.load(Ordering::Acquire);
        loop {
            if refs == 0 {
                return None;
            }
            match slot.refs.compare_exchange_weak(
                refs,
                refs + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(id),
                Err(now) => refs = now,
            }
        }
    }

    /// Occupied content-index entries as `(frame index, refcount)` — the
    /// verifier's view. Only consistent when the caller has excluded frame
    /// frees (the store holds every shard lock; every decref-to-zero
    /// happens under a shard write lock).
    pub(crate) fn index_snapshot(&self) -> Vec<(u32, u32)> {
        match self.index.get() {
            None => Vec::new(),
            Some(ix) => ix
                .snapshot()
                .into_iter()
                .map(|(_, frame)| {
                    let refs = self.slot(FrameId(frame)).refs.load(Ordering::Acquire);
                    (frame, refs)
                })
                .collect(),
        }
    }

    /// Number of live (allocated) frames.
    pub(crate) fn live_frames(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Total slots ever allocated (live + free-listed); a high-water mark.
    #[allow(dead_code)] // diagnostics; exercised in tests
    pub(crate) fn capacity(&self) -> usize {
        self.high.load(Ordering::Relaxed)
    }

    /// Take a page buffer from the recycle pool, if one is available.
    pub(crate) fn take_pooled(&self) -> Option<PageData> {
        self.lock_recycler().pool.pop()
    }

    /// Move up to `n` buffers from the recycle pool onto `out`, under one
    /// lock acquisition. Returns how many it moved.
    pub(crate) fn take_pooled_many(&self, n: usize, out: &mut Vec<PageData>) -> usize {
        let mut rec = self.lock_recycler();
        let keep = rec.pool.len().saturating_sub(n);
        let taken = rec.pool.len() - keep;
        out.extend(rec.pool.drain(keep..));
        taken
    }

    /// Return a built-but-unused page buffer to the recycle pool.
    pub(crate) fn recycle(&self, page: PageData) {
        self.recycle_many(std::iter::once(page));
    }

    /// Return built-but-unused page buffers to the recycle pool, under
    /// one lock acquisition; past [`POOL_MAX`] the allocator takes them.
    pub(crate) fn recycle_many(&self, pages: impl IntoIterator<Item = PageData>) {
        let mut rec = self.lock_recycler();
        let room = POOL_MAX.saturating_sub(rec.pool.len());
        rec.pool.extend(pages.into_iter().take(room));
    }

    /// Buffers currently waiting in the recycle pool.
    #[allow(dead_code)] // diagnostics; exercised in tests
    pub(crate) fn pooled_pages(&self) -> usize {
        self.lock_recycler().pool.len()
    }

    /// `(frame index, refcount)` for every live frame — the verifier's view.
    /// Only consistent when the caller has excluded all map mutation (the
    /// store holds every shard lock).
    pub(crate) fn snapshot_refs(&self) -> Vec<(u32, u32)> {
        (0..self.high.load(Ordering::Acquire) as u32)
            .filter_map(|i| {
                let r = self.slot(FrameId(i)).refs.load(Ordering::Acquire);
                (r > 0).then_some((i, r))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::page_hash;

    fn page(fill: u8) -> PageData {
        let mut p = PageData::zeroed(8);
        p.bytes_mut().fill(fill);
        p
    }

    #[test]
    fn alloc_and_read() {
        let t = FrameTable::new();
        let a = t.alloc(page(1));
        let b = t.alloc(page(2));
        assert_ne!(a, b);
        assert_eq!(t.data_arc(a).bytes()[0], 1);
        assert_eq!(t.data_arc(b).bytes()[0], 2);
        assert_eq!(t.live_frames(), 2);
    }

    #[test]
    fn refcounting_frees_at_zero() {
        let t = FrameTable::new();
        let a = t.alloc(page(1));
        t.incref(a);
        assert_eq!(t.refs(a), 2);
        assert!(!t.decref(a));
        assert_eq!(t.refs(a), 1);
        assert!(t.decref(a));
        assert_eq!(t.live_frames(), 0);
    }

    #[test]
    fn free_slots_are_reused() {
        let t = FrameTable::new();
        let a = t.alloc(page(1));
        t.decref(a);
        let b = t.alloc(page(2));
        assert_eq!(a.index(), b.index(), "freed slot should be reused");
        assert_eq!(t.capacity(), 1);
    }

    #[test]
    fn allocation_crosses_chunk_boundaries() {
        let t = FrameTable::new();
        let ids: Vec<FrameId> = (0..CHUNK_SIZE + 3)
            .map(|i| t.alloc(page(i as u8)))
            .collect();
        assert_eq!(t.live_frames(), CHUNK_SIZE + 3);
        assert_eq!(
            t.data_arc(ids[CHUNK_SIZE + 2]).bytes()[0],
            (CHUNK_SIZE + 2) as u8
        );
        for id in ids {
            t.decref(id);
        }
        assert_eq!(t.live_frames(), 0);
    }

    #[test]
    fn freed_buffers_land_in_the_pool() {
        let t = FrameTable::new();
        let a = t.alloc(page(7));
        t.decref(a);
        assert_eq!(t.pooled_pages(), 1);
        let recycled = t.take_pooled().expect("pool should hold the buffer");
        assert_eq!(recycled.bytes()[0], 7, "pooled buffers keep stale bytes");
        assert!(t.take_pooled().is_none());
    }

    #[test]
    fn pool_is_bounded() {
        let t = FrameTable::new();
        for _ in 0..POOL_MAX + 50 {
            t.recycle(PageData::zeroed(8));
        }
        assert_eq!(t.pooled_pages(), POOL_MAX);
    }

    #[test]
    #[should_panic(expected = "freed frame")]
    fn use_after_free_panics() {
        let t = FrameTable::new();
        let a = t.alloc(page(1));
        t.decref(a);
        let _ = t.data_arc(a);
    }

    #[test]
    fn write_if_private_respects_sharing() {
        let t = FrameTable::new();
        let a = t.alloc(page(0));
        assert_eq!(
            t.write_if_private(a, 0, &[42], None),
            Some(false),
            "refs == 1, unindexed: in place"
        );
        assert_eq!(t.data_arc(a).bytes()[0], 42);
        t.incref(a);
        assert_eq!(
            t.write_if_private(a, 0, &[9], None),
            None,
            "refs == 2: refuse"
        );
        assert_eq!(t.data_arc(a).bytes()[0], 42, "shared page untouched");
    }

    #[test]
    fn reader_snapshot_survives_in_place_write() {
        let t = FrameTable::new();
        let a = t.alloc(page(1));
        let snapshot = t.data_arc(a);
        // Forces make_mut to copy.
        assert!(t.write_if_private(a, 0, &[9], None).is_some());
        assert_eq!(snapshot.bytes()[0], 1, "held snapshot is immutable");
        assert_eq!(t.data_arc(a).bytes()[0], 9);
    }

    #[test]
    fn dedupe_lookup_shares_only_verified_bytes() {
        let t = FrameTable::new();
        let a = t.alloc(page(5));
        let bytes = t.data_arc(a).bytes().to_vec();
        let h = page_hash(&bytes);
        t.index_insert(a, h);
        // Matching bytes: the hint verifies and the frame gains a ref.
        assert_eq!(t.dedupe_lookup(h, &bytes), Some(a));
        assert_eq!(t.refs(a), 2);
        // Same hash, different bytes (a forced collision): full-byte
        // verification refuses the share and takes no reference.
        let other = vec![9u8; bytes.len()];
        assert_eq!(t.dedupe_lookup(h, &other), None);
        assert_eq!(t.refs(a), 2);
        // A hash the index has never seen misses outright.
        assert_eq!(t.dedupe_lookup(h ^ 1, &bytes), None);
    }

    #[test]
    fn in_place_write_invalidates_the_index_entry() {
        let t = FrameTable::new();
        let a = t.alloc(page(5));
        let bytes = t.data_arc(a).bytes().to_vec();
        let h = page_hash(&bytes);
        t.index_insert(a, h);
        assert_eq!(
            t.write_if_private(a, 0, &[1], None),
            Some(true),
            "mutation must report the cleared entry"
        );
        assert_eq!(t.dedupe_lookup(h, &bytes), None, "stale hint retracted");
        assert_eq!(t.refs(a), 1);
    }

    #[test]
    fn freeing_an_indexed_frame_clears_its_entry() {
        let t = FrameTable::new();
        let a = t.alloc(page(5));
        let bytes = t.data_arc(a).bytes().to_vec();
        let h = page_hash(&bytes);
        t.index_insert(a, h);
        assert!(t.decref(a));
        assert!(t.index_snapshot().is_empty());
        // A lookup of the retracted hash must miss, not resurrect.
        assert_eq!(t.dedupe_lookup(h, &bytes), None);
        // The deferred path clears too.
        let b = t.alloc(page(6));
        let hb = page_hash(t.data_arc(b).bytes());
        t.index_insert(b, hb);
        let mut freed = Vec::new();
        assert!(t.decref_deferred(b, &mut freed));
        t.recycle_freed(freed);
        assert!(t.index_snapshot().is_empty());
    }

    #[test]
    fn snapshot_refs_lists_live_frames_only() {
        let t = FrameTable::new();
        let a = t.alloc(page(1));
        let b = t.alloc(page(2));
        t.incref(b);
        t.decref(a);
        assert_eq!(t.snapshot_refs(), vec![(b.index(), 2)]);
    }

    #[test]
    fn deferred_decref_batches_recycler_work() {
        let t = FrameTable::new();
        let ids: Vec<FrameId> = (0..6).map(|i| t.alloc(page(i as u8))).collect();
        let before = t.recycler_lock_count();
        let mut freed = Vec::new();
        for &id in &ids {
            assert!(t.decref_deferred(id, &mut freed));
        }
        assert_eq!(t.live_frames(), 0, "frames detach before recycling");
        t.recycle_freed(freed);
        assert_eq!(
            t.recycler_lock_count() - before,
            1,
            "six frames freed under one acquisition"
        );
        assert_eq!(t.pooled_pages(), 6);
        let reused = t.alloc(page(9));
        assert!(
            ids.iter().any(|id| id.index() == reused.index()),
            "deferred-freed slots return to the free list"
        );
        let count = t.recycler_lock_count();
        t.recycle_freed(Vec::new());
        assert_eq!(t.recycler_lock_count(), count, "empty batch takes no lock");
    }

    #[test]
    fn concurrent_ref_traffic_balances() {
        use std::thread;
        let t = Arc::new(FrameTable::new());
        let a = t.alloc(page(1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        t.incref(a);
                        t.decref(a);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.refs(a), 1);
        assert_eq!(t.live_frames(), 1);
    }
}
