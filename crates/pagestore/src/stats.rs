//! Fault/copy accounting.
//!
//! §3.4 of the paper phrases its measurements in these terms: page-copy
//! service rate (pages/second), fork latency, and the *write fraction* —
//! "the fraction of the pages in the address space which are written is the
//! important independent variable for a program with a known address space
//! size, using copy-on-write". The store keeps exact counters so benches and
//! experiments can report the same quantities.
//!
//! Since the `worlds-obs` layer landed, this module is a thin adapter: the
//! counters themselves are [`worlds_obs::Counter`]s (the same lock-free
//! primitive the observability registry uses), and [`StoreStats`] remains
//! the stable snapshot API callers were written against.

use worlds_obs::Counter;

/// Global (whole-store) counters. All counters are monotonic.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub forks: Counter,
    pub adopts: Counter,
    pub cow_faults: Counter,
    pub bytes_copied: Counter,
    pub zero_fills: Counter,
    pub reads: Counter,
    pub writes: Counter,
    pub worlds_dropped: Counter,
    pub frames_freed: Counter,
    pub frames_recycled: Counter,
    pub dedupe_hits: Counter,
    pub bytes_deduped: Counter,
    pub hash_invalidations: Counter,
}

impl StatsInner {
    pub(crate) fn snapshot(&self) -> StoreStats {
        let writes = self.writes.get();
        StoreStats {
            forks: self.forks.get(),
            adopts: self.adopts.get(),
            cow_faults: self.cow_faults.get(),
            bytes_copied: self.bytes_copied.get(),
            zero_fills: self.zero_fills.get(),
            reads: self.reads.get(),
            writes,
            writes_solo: writes,
            worlds_dropped: self.worlds_dropped.get(),
            frames_freed: self.frames_freed.get(),
            frames_recycled: self.frames_recycled.get(),
            dedupe_hits: self.dedupe_hits.get(),
            bytes_deduped: self.bytes_deduped.get(),
            hash_invalidations: self.hash_invalidations.get(),
            // Owned by the frame table, not this struct; the store's
            // `stats()` fills it from the exact acquisition count.
            recycler_locks: 0,
        }
    }
}

/// A point-in-time snapshot of store-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Worlds created by `fork_world` (page-map inheritances).
    pub forks: u64,
    /// `adopt` commits performed (successful `alt_wait` rendezvous).
    pub adopts: u64,
    /// Copy-on-write faults taken (each copies exactly one page).
    pub cow_faults: u64,
    /// Bytes copied by COW faults.
    pub bytes_copied: u64,
    /// Demand-zero pages materialised by first writes.
    pub zero_fills: u64,
    /// Page read operations.
    pub reads: u64,
    /// Page write operations.
    pub writes: u64,
    /// Always equal to `writes`: every write is one critical section
    /// under its world's shard write lock. Kept because the `benchmark/`
    /// package reads it.
    pub writes_solo: u64,
    /// Worlds dropped (eliminated siblings or adopted-away children).
    pub worlds_dropped: u64,
    /// Frames whose last reference was dropped (drop_world, adopt, or a COW
    /// fault racing a sibling drop).
    pub frames_freed: u64,
    /// Page buffers served from the recycle pool instead of the allocator.
    pub frames_recycled: u64,
    /// Commits that re-shared an existing identical frame instead of
    /// installing a copy (content-addressed dedupe, opt-in).
    pub dedupe_hits: u64,
    /// Bytes those dedupe hits avoided materialising (hits × page size).
    pub bytes_deduped: u64,
    /// Content-index entries retracted by in-place writes (the first
    /// mutation after a seal).
    pub hash_invalidations: u64,
    /// Recycler (free list + buffer pool) mutex acquisitions — the cost
    /// batched elimination amortizes.
    pub recycler_locks: u64,
}

impl StoreStats {
    /// Difference of two snapshots (`later - earlier`), for measuring a
    /// region of execution.
    pub fn delta_since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            forks: self.forks - earlier.forks,
            adopts: self.adopts - earlier.adopts,
            cow_faults: self.cow_faults - earlier.cow_faults,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
            zero_fills: self.zero_fills - earlier.zero_fills,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            writes_solo: self.writes_solo - earlier.writes_solo,
            worlds_dropped: self.worlds_dropped - earlier.worlds_dropped,
            frames_freed: self.frames_freed - earlier.frames_freed,
            frames_recycled: self.frames_recycled - earlier.frames_recycled,
            dedupe_hits: self.dedupe_hits - earlier.dedupe_hits,
            bytes_deduped: self.bytes_deduped - earlier.bytes_deduped,
            hash_invalidations: self.hash_invalidations - earlier.hash_invalidations,
            recycler_locks: self.recycler_locks - earlier.recycler_locks,
        }
    }
}

/// Per-world accounting, kept alongside each world's page map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Pages this world copied via COW faults since it was forked.
    pub pages_cowed: u64,
    /// Demand-zero pages this world materialised.
    pub pages_zero_filled: u64,
    /// Pages inherited (shared) from the parent at fork time.
    pub pages_inherited: u64,
}

impl WorldStats {
    /// The paper's *write fraction*: pages privately (re)written over pages
    /// inherited at fork. Returns `None` for a root world (nothing
    /// inherited, the ratio is undefined).
    pub fn write_fraction(&self) -> Option<f64> {
        if self.pages_inherited == 0 {
            None
        } else {
            Some(self.pages_cowed as f64 / self.pages_inherited as f64)
        }
    }
}

/// A world's residency split by ownership, for per-tenant accounting
/// ([`crate::PageStore::resident_frames_of`]): `private` frames are
/// referenced by this world's map alone (refcount 1 — dropping the world
/// returns exactly this much memory), `shared` frames are also mapped by
/// at least one other world (or pinned by the content index) and cost
/// the tenant nothing marginal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentFrames {
    /// Frames this world is the sole owner of.
    pub private: u64,
    /// Frames shared with other worlds.
    pub shared: u64,
}

impl ResidentFrames {
    /// All frames mapped by the world.
    pub fn total(&self) -> u64 {
        self.private + self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let inner = StatsInner::default();
        inner.forks.add(3);
        inner.bytes_copied.add(100);
        let a = inner.snapshot();
        inner.forks.add(2);
        inner.bytes_copied.add(80);
        let b = inner.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.forks, 2);
        assert_eq!(d.bytes_copied, 80);
        assert_eq!(d.adopts, 0);
    }

    #[test]
    fn write_fraction_matches_paper_definition() {
        let ws = WorldStats {
            pages_cowed: 2,
            pages_zero_filled: 0,
            pages_inherited: 10,
        };
        assert_eq!(ws.write_fraction(), Some(0.2));
        let root = WorldStats::default();
        assert_eq!(root.write_fraction(), None);
    }
}
