//! The content-dedupe workloads behind `BENCH_pagestore.json`'s
//! `dedupe` block.
//!
//! Two questions, two workloads:
//!
//! 1. **How much does the index save** when sibling worlds converge on
//!    the same bytes? [`sibling_dedupe_ratio`] runs the rootfinder
//!    shape — N siblings forked from one parent, each computing the
//!    same intermediate table into its own private pages — and reports
//!    logical resident bytes over physical resident bytes. Without the
//!    index the ratio is 1.0 by construction; with it, every sibling
//!    past the first re-shares the first's sealed frames.
//!
//! 2. **What does the index cost when it never helps?** Two prices,
//!    kept separate because they differ by an order of magnitude:
//!    [`rewrite_ns`] times the in-place write fast path, where dedupe-on
//!    adds a single hash invalidation per sealed page but never
//!    hashes — the ratio of on/off is the
//!    regression gate CI holds at ≤ 1.10. [`unique_write_ns`] times the
//!    seal path on never-repeating content, where every commit pays the
//!    full-page hash and a failed probe — the budgeted miss cost,
//!    recorded so the trajectory is visible but not gated (a hash pass
//!    can't hide inside 10% of a bare page copy).

use std::time::Instant;

use worlds_pagestore::PageStore;

/// Shape of the sibling-convergence workload.
#[derive(Debug, Clone, Copy)]
pub struct DedupeConfig {
    /// Sibling worlds forked from the seeded parent.
    pub siblings: usize,
    /// Pages each sibling writes (its whole private view).
    pub pages: u64,
    /// Store page size in bytes.
    pub page_size: usize,
}

impl Default for DedupeConfig {
    fn default() -> Self {
        DedupeConfig {
            siblings: 8,
            pages: 32,
            page_size: 2048,
        }
    }
}

/// One sibling's "computed" page: a function of the vpn only, so every
/// sibling derives identical bytes — the rootfinder siblings all
/// tabulating the same polynomial.
fn computed_page(vpn: u64, page_size: usize) -> Vec<u8> {
    let mut page = vec![0u8; page_size];
    for (i, b) in page.iter_mut().enumerate() {
        *b = (vpn as u8).wrapping_mul(31).wrapping_add(i as u8 ^ 0x5A);
    }
    page
}

/// Run the sibling workload with the content index armed and return
/// `(dedupe_ratio, dedupe_hits)`: logical resident bytes (every world's
/// mapped pages) over physical resident bytes (live frames), plus the
/// store's own hit count as a cross-check.
pub fn sibling_dedupe_ratio(cfg: &DedupeConfig) -> (f64, u64) {
    let store = PageStore::new(cfg.page_size);
    store.set_dedupe(true);
    let parent = store.create_world();
    // Seed the parent with bytes no sibling will reproduce, so every
    // sibling write genuinely diverges (a CoW commit, not a no-op).
    let mut seed = vec![0xEEu8; cfg.page_size];
    for vpn in 0..cfg.pages {
        seed[0] = vpn as u8;
        store.write(parent, vpn, 0, &seed).expect("seed parent");
    }
    let kids: Vec<_> = (0..cfg.siblings)
        .map(|_| store.fork_world(parent).expect("fork sibling"))
        .collect();
    for &kid in &kids {
        for vpn in 0..cfg.pages {
            let page = computed_page(vpn, cfg.page_size);
            store.write(kid, vpn, 0, &page).expect("sibling compute");
        }
    }
    let mut logical_pages = 0u64;
    for &w in kids.iter().chain(std::iter::once(&parent)) {
        logical_pages += store.mapped_vpns(w).expect("world live").len() as u64;
    }
    let physical_pages = store.live_frames() as u64;
    let hits = store.stats().dedupe_hits;
    for kid in kids {
        store.drop_world(kid).expect("drop sibling");
    }
    store.drop_world(parent).expect("drop parent");
    (logical_pages as f64 / physical_pages.max(1) as f64, hits)
}

/// Median ns per full-page write of never-repeating content, with the
/// content index on or off. Every on-path commit pays the hash and a
/// failed probe — the worst honest case for the index.
pub fn unique_write_ns(dedupe: bool, samples: usize, pages: u64, page_size: usize) -> f64 {
    let store = PageStore::new(page_size);
    store.set_dedupe(dedupe);
    let mut stamp = 0u64;
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let world = store.create_world();
            let mut page = vec![0u8; page_size];
            let t0 = Instant::now();
            for vpn in 0..pages {
                stamp += 1;
                // Unique content per write: the probe can never hit.
                page[..8].copy_from_slice(&stamp.to_le_bytes());
                store.write(world, vpn, 0, &page).expect("bench write");
            }
            let per = t0.elapsed().as_secs_f64() * 1e9 / pages as f64;
            store.drop_world(world).expect("bench world");
            per
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median ns per in-place *partial* rewrite — the write fast path the
/// contention workload lives on — with the content index on or off.
/// Partial writes are not seal points: dedupe-on pays a single hash
/// invalidation per sealed page, never a hash. This is the number the
/// ≤ 10% regression gate holds. (A
/// *full-page* rewrite is a seal point by design and pays the hash —
/// that cost is [`unique_write_ns`]'s.)
pub fn rewrite_ns(dedupe: bool, samples: usize, pages: u64, page_size: usize) -> f64 {
    let store = PageStore::new(page_size);
    store.set_dedupe(dedupe);
    let world = store.create_world();
    // Unique content per page, so nothing dedupes at populate time and
    // every frame is private when the timed rewrites begin.
    let mut page = vec![0u8; page_size];
    for vpn in 0..pages {
        page[..8].copy_from_slice(&vpn.to_le_bytes());
        store.write(world, vpn, 0, &page).expect("populate");
    }
    let mut stamp = 0u64;
    let mut record = vec![0u8; 64.min(page_size)];
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for vpn in 0..pages {
                stamp += 1;
                // Content varies so the rewrite is never a silent no-op.
                record[..8].copy_from_slice(&stamp.to_le_bytes());
                store.write(world, vpn, 0, &record).expect("rewrite");
            }
            t0.elapsed().as_secs_f64() * 1e9 / pages as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_workload_dedupes_well_past_the_gate() {
        let (ratio, hits) = sibling_dedupe_ratio(&DedupeConfig {
            siblings: 4,
            pages: 16,
            page_size: 512,
        });
        assert!(ratio > 1.5, "sibling convergence must dedupe: {ratio:.2}x");
        assert!(hits as usize >= 3 * 16, "later siblings all hit: {hits}");
    }

    #[test]
    fn unique_writes_time_both_paths() {
        let off = unique_write_ns(false, 3, 64, 512);
        let on = unique_write_ns(true, 3, 64, 512);
        assert!(off > 0.0 && on > 0.0);
    }

    #[test]
    fn rewrites_time_both_paths() {
        let off = rewrite_ns(false, 3, 64, 512);
        let on = rewrite_ns(true, 3, 64, 512);
        assert!(off > 0.0 && on > 0.0);
    }
}
