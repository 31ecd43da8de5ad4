//! Property-based tests for the COW page store.
//!
//! These check the invariants the Multiple Worlds mechanism rests on:
//! isolation (a child's writes are invisible outside it), commit atomicity
//! (after `adopt` the parent sees exactly the child's view) and resource
//! balance (frames never leak across arbitrary fork/write/drop interleavings).

use proptest::prelude::*;
use worlds_pagestore::{checkpoint, checkpoint_delta, restore, PageStore, WorldId};

const PAGE: usize = 32;

/// A randomly generated store operation over a bounded set of worlds/pages.
#[derive(Debug, Clone)]
enum Op {
    Write { world: usize, vpn: u64, byte: u8 },
    Fork { parent: usize },
    Drop { world: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, 0u64..16, any::<u8>()).prop_map(|(world, vpn, byte)| Op::Write {
            world,
            vpn,
            byte
        }),
        (0usize..8).prop_map(|parent| Op::Fork { parent }),
        (0usize..8).prop_map(|world| Op::Drop { world }),
    ]
}

/// A shadow model: each world is a plain map vpn -> byte. If the store and
/// the shadow ever disagree, COW sharing has leaked a write between worlds.
#[derive(Default, Clone)]
struct Shadow {
    worlds: Vec<Option<std::collections::BTreeMap<u64, u8>>>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Writes in any world never become visible in any other live world.
    #[test]
    fn isolation_against_shadow_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let store = PageStore::new(PAGE);
        let mut ids: Vec<Option<WorldId>> = vec![Some(store.create_world())];
        let mut shadow = Shadow::default();
        shadow.worlds.push(Some(Default::default()));

        for op in ops {
            match op {
                Op::Write { world, vpn, byte } => {
                    let slot = world % ids.len();
                    if let Some(w) = ids[slot] {
                        store.write(w, vpn, 0, &[byte]).unwrap();
                        shadow.worlds[slot].as_mut().unwrap().insert(vpn, byte);
                    }
                }
                Op::Fork { parent } => {
                    if ids.len() >= 8 { continue; }
                    let slot = parent % ids.len();
                    if let Some(p) = ids[slot] {
                        let c = store.fork_world(p).unwrap();
                        ids.push(Some(c));
                        let cloned = shadow.worlds[slot].clone();
                        shadow.worlds.push(cloned);
                    }
                }
                Op::Drop { world } => {
                    let slot = world % ids.len();
                    // Never drop slot 0 so at least one world survives.
                    if slot != 0 {
                        if let Some(w) = ids[slot].take() {
                            store.drop_world(w).unwrap();
                            shadow.worlds[slot] = None;
                        }
                    }
                }
            }
        }

        // Every live world agrees with its shadow on every page it wrote,
        // and reads zero where the shadow has no entry.
        for (slot, id) in ids.iter().enumerate() {
            if let Some(w) = id {
                let model = shadow.worlds[slot].as_ref().unwrap();
                for vpn in 0..16u64 {
                    let got = store.read_vec(*w, vpn, 0, 1).unwrap()[0];
                    let want = model.get(&vpn).copied().unwrap_or(0);
                    prop_assert_eq!(got, want, "world slot {} page {}", slot, vpn);
                }
            }
        }
    }

    /// Dropping every world frees every frame: no leaks, no double frees.
    #[test]
    fn frames_never_leak(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let store = PageStore::new(PAGE);
        let mut ids: Vec<Option<WorldId>> = vec![Some(store.create_world())];
        for op in ops {
            match op {
                Op::Write { world, vpn, byte } => {
                    let slot = world % ids.len();
                    if let Some(w) = ids[slot] {
                        store.write(w, vpn, 0, &[byte]).unwrap();
                    }
                }
                Op::Fork { parent } => {
                    if ids.len() >= 8 { continue; }
                    let slot = parent % ids.len();
                    if let Some(p) = ids[slot] {
                        ids.push(Some(store.fork_world(p).unwrap()));
                    }
                }
                Op::Drop { world } => {
                    let slot = world % ids.len();
                    if let Some(w) = ids[slot].take() {
                        store.drop_world(w).unwrap();
                    }
                }
            }
        }
        for id in ids.iter().flatten() {
            store.drop_world(*id).unwrap();
        }
        prop_assert_eq!(store.live_frames(), 0);
        prop_assert_eq!(store.world_count(), 0);
    }

    /// adopt(parent, child) makes the parent's view byte-identical to the
    /// child's pre-commit view.
    #[test]
    fn adopt_is_exact(
        parent_pages in proptest::collection::btree_map(0u64..12, any::<u8>(), 0..10),
        child_pages in proptest::collection::btree_map(0u64..12, any::<u8>(), 0..10),
    ) {
        let store = PageStore::new(PAGE);
        let parent = store.create_world();
        for (&vpn, &b) in &parent_pages {
            store.write(parent, vpn, 0, &[b]).unwrap();
        }
        let child = store.fork_world(parent).unwrap();
        for (&vpn, &b) in &child_pages {
            store.write(child, vpn, 0, &[b]).unwrap();
        }
        // Record the child's full view, then commit.
        let mut expected = Vec::new();
        for vpn in 0..12u64 {
            expected.push(store.read_vec(child, vpn, 0, 1).unwrap()[0]);
        }
        store.adopt(parent, child).unwrap();
        for vpn in 0..12u64 {
            prop_assert_eq!(store.read_vec(parent, vpn, 0, 1).unwrap()[0], expected[vpn as usize]);
        }
    }

    /// The write fraction reported for a child equals distinct pages written
    /// over pages inherited.
    #[test]
    fn write_fraction_is_distinct_pages_over_inherited(
        inherited in 1u64..20,
        writes in proptest::collection::vec(0u64..20, 0..40),
    ) {
        let store = PageStore::new(PAGE);
        let parent = store.create_world();
        for vpn in 0..inherited {
            store.write(parent, vpn, 0, &[1]).unwrap();
        }
        let child = store.fork_world(parent).unwrap();
        let mut touched = std::collections::BTreeSet::new();
        for vpn in writes {
            let vpn = vpn % inherited; // only write inherited pages
            store.write(child, vpn, 0, &[2]).unwrap();
            touched.insert(vpn);
        }
        let ws = store.world_stats(child).unwrap();
        prop_assert_eq!(ws.pages_inherited, inherited);
        prop_assert_eq!(ws.pages_cowed, touched.len() as u64);
        let expect = touched.len() as f64 / inherited as f64;
        prop_assert!((ws.write_fraction().unwrap() - expect).abs() < 1e-12);
    }

    /// The observability layer's `page_copies` counter matches ground
    /// truth: a write copies a page iff the page's frame is shared at
    /// that instant. The shadow here is a reference-counted frame table —
    /// the data structure the store is *supposed* to implement.
    #[test]
    fn obs_page_copies_match_cow_ground_truth(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let obs = worlds_obs::Registry::enabled();
        let store = PageStore::with_obs(PAGE, obs.clone());
        let mut ids: Vec<Option<WorldId>> = vec![Some(store.create_world())];
        // Shadow frame table: per-world vpn → frame id, frame → refcount.
        let mut maps: Vec<Option<std::collections::BTreeMap<u64, u64>>> =
            vec![Some(Default::default())];
        let mut rc: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut next_frame = 0u64;
        let (mut copies, mut zero_fills) = (0u64, 0u64);
        for op in ops {
            match op {
                Op::Write { world, vpn, byte } => {
                    let slot = world % ids.len();
                    if let Some(w) = ids[slot] {
                        store.write(w, vpn, 0, &[byte]).unwrap();
                        let map = maps[slot].as_mut().unwrap();
                        match map.get(&vpn).copied() {
                            None => {
                                // First touch: demand-zero fill, no copy.
                                zero_fills += 1;
                                map.insert(vpn, next_frame);
                                rc.insert(next_frame, 1);
                                next_frame += 1;
                            }
                            Some(f) if rc[&f] > 1 => {
                                // Shared frame: the write must copy.
                                copies += 1;
                                *rc.get_mut(&f).unwrap() -= 1;
                                map.insert(vpn, next_frame);
                                rc.insert(next_frame, 1);
                                next_frame += 1;
                            }
                            Some(_) => {} // sole owner: write in place
                        }
                    }
                }
                Op::Fork { parent } => {
                    if ids.len() >= 8 { continue; }
                    let slot = parent % ids.len();
                    if let Some(p) = ids[slot] {
                        ids.push(Some(store.fork_world(p).unwrap()));
                        let cloned = maps[slot].clone();
                        if let Some(m) = &cloned {
                            for f in m.values() {
                                *rc.get_mut(f).unwrap() += 1;
                            }
                        }
                        maps.push(cloned);
                    }
                }
                Op::Drop { world } => {
                    let slot = world % ids.len();
                    // Keep the root world alive as a fork source.
                    if slot != 0 {
                        if let Some(w) = ids[slot].take() {
                            store.drop_world(w).unwrap();
                            for f in maps[slot].take().unwrap().values() {
                                *rc.get_mut(f).unwrap() -= 1;
                            }
                        }
                    }
                }
            }
        }
        let s = obs.stats().expect("registry is enabled");
        prop_assert_eq!(s.pagestore.page_copies.get(), copies);
        prop_assert_eq!(s.pagestore.zero_fills.get(), zero_fills);
        prop_assert_eq!(s.pagestore.bytes_copied.get(), copies * PAGE as u64);
        prop_assert_eq!(s.pagestore.faults.get(), copies + zero_fills);
    }

    /// Checkpoint → restore is an exact round trip for both image shapes:
    /// a random world shipped as a full image, and a random child shipped
    /// as a delta against its base, both restore byte-identical pages.
    #[test]
    fn checkpoint_round_trip_full_and_delta(
        base_pages in proptest::collection::btree_map(0u64..24, any::<u8>(), 0..12),
        child_pages in proptest::collection::btree_map(0u64..24, any::<u8>(), 0..12),
    ) {
        let src = PageStore::new(PAGE);
        let base = src.create_world();
        for (&vpn, &b) in &base_pages {
            src.write(base, vpn, 0, &[b]).unwrap();
        }
        let child = src.fork_world(base).unwrap();
        for (&vpn, &b) in &child_pages {
            src.write(child, vpn, 0, &[b]).unwrap();
        }

        // Full image into a fresh store.
        let full = checkpoint(&src, child).unwrap();
        let dst = PageStore::new(PAGE);
        let r1 = restore(&dst, &full).unwrap();

        // Delta into a store that already holds the base (itself shipped
        // as a full image — the rfork-then-rfork-a-sibling shape).
        let base_img = checkpoint(&src, base).unwrap();
        let base_there = restore(&dst, &base_img).unwrap();
        let delta = checkpoint_delta(&src, child, base, base_there.raw()).unwrap();
        let r2 = restore(&dst, &delta).unwrap();

        for vpn in 0..24u64 {
            let want = src.read_vec(child, vpn, 0, PAGE).unwrap();
            prop_assert_eq!(&dst.read_vec(r1, vpn, 0, PAGE).unwrap(), &want, "full vpn {}", vpn);
            prop_assert_eq!(&dst.read_vec(r2, vpn, 0, PAGE).unwrap(), &want, "delta vpn {}", vpn);
        }

        // The delta never ships more page records than the full image.
        prop_assert!(delta.len() <= full.len() + 8);
    }

    /// Truncating or corrupting an image of either shape makes restore
    /// fail cleanly — never a panic, never a world created from garbage.
    #[test]
    fn corrupt_images_are_rejected(
        pages in proptest::collection::btree_map(0u64..16, any::<u8>(), 1..8),
        cut in any::<u64>(),
    ) {
        let src = PageStore::new(PAGE);
        let base = src.create_world();
        let child = src.fork_world(base).unwrap();
        for (&vpn, &b) in &pages {
            src.write(child, vpn, 0, &[b]).unwrap();
        }
        for image in [
            checkpoint(&src, child).unwrap(),
            checkpoint_delta(&src, child, base, base.raw()).unwrap(),
        ] {
            let dst = PageStore::new(PAGE);
            // Any strict prefix fails (the record walk runs out of bytes).
            let n = cut as usize % image.len();
            prop_assert!(restore(&dst, &image[..n]).is_err());
            // A trashed magic fails outright.
            let mut bad = image.clone();
            bad[0] ^= 0xff;
            prop_assert!(restore(&dst, &bad).is_err());
            let worlds_before = dst.world_count();
            prop_assert_eq!(worlds_before, 0, "failed restores must not leak worlds");
        }
    }
}
