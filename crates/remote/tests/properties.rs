//! Property tests for the distributed substrate: arbitrary world contents
//! survive rfork round trips, and dirty-set shipping commits exactly the
//! replica's view.

use proptest::prelude::*;
use worlds_remote::{Cluster, NetModel, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// rfork replicates arbitrary sparse world contents bit-exactly.
    #[test]
    fn rfork_round_trips_arbitrary_contents(
        pages in proptest::collection::btree_map(0u64..40, any::<u8>(), 0..20),
    ) {
        let mut c = Cluster::new(2, 256, NetModel::datacenter());
        let origin = c.create_world(NodeId(0));
        for (&vpn, &b) in &pages {
            c.write(origin, vpn, &[b]).unwrap();
        }
        let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
        for vpn in 0..40u64 {
            let want = pages.get(&vpn).copied().unwrap_or(0);
            prop_assert_eq!(c.read(replica, vpn, 1).unwrap(), vec![want]);
        }
    }

    /// One image format, three receivers: whatever the origin holds and
    /// however it changes between rforks, a replica built from a full
    /// image (delta off), from a delta to a cold receiver (delta on, the
    /// receiver has seen only the base) and from a delta to a warm one
    /// (delta on, its content index armed and already holding every
    /// changed page's contents) reads identically, and the warm receiver
    /// is shipped exactly the bytes the cold one is.
    #[test]
    fn full_cold_and_warm_rforks_build_identical_replicas(
        base in proptest::collection::btree_map(0u64..24, any::<u8>(), 1..12),
        edits in proptest::collection::btree_map(0u64..24, any::<u8>(), 0..12),
    ) {
        const PAGE: usize = 256;
        let page = |b: u8| vec![b; PAGE];
        // The warm receiver's armed index holds every byte value an edit
        // can write; the cold one has seen only the base image.
        let mut replicas = Vec::new();
        for (delta, warm) in [(false, false), (true, false), (true, true)] {
            let mut c = Cluster::new(2, PAGE, NetModel::datacenter());
            c.set_delta_rfork(delta);
            let origin = c.create_world(NodeId(0));
            for (&vpn, &b) in &base {
                c.write(origin, vpn, &page(b)).unwrap();
            }
            c.rfork(origin, NodeId(1)).unwrap();
            if warm {
                c.node(NodeId(1)).store().set_dedupe(true);
                let held = c.create_world(NodeId(1));
                for (i, &b) in edits.values().enumerate() {
                    c.write(held, i as u64, &page(b)).unwrap();
                }
            }
            for (&vpn, &b) in &edits {
                c.write(origin, vpn, &page(b)).unwrap();
            }
            let received = c.node(NodeId(1)).bytes_received();
            let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
            let shipped = c.node(NodeId(1)).bytes_received() - received;
            let view: Vec<Vec<u8>> = (0..24).map(|vpn| c.read(replica, vpn, PAGE).unwrap()).collect();
            replicas.push((view, shipped));
            c.node(NodeId(1)).store().verify_refcounts().unwrap();
        }
        prop_assert_eq!(&replicas[0].0, &replicas[1].0, "full vs cold delta");
        prop_assert_eq!(&replicas[0].0, &replicas[2].0, "full vs warm delta");
        // What the receiver holds changes nothing on the wire.
        prop_assert_eq!(replicas[2].1, replicas[1].1, "warm vs cold bytes");
    }

    /// After arbitrary remote edits, commit_back makes the origin's view
    /// byte-identical to the replica's — and ships only changed pages.
    #[test]
    fn commit_back_is_exact_and_minimal(
        base in proptest::collection::btree_map(0u64..30, any::<u8>(), 1..15),
        edits in proptest::collection::btree_map(0u64..30, any::<u8>(), 0..15),
    ) {
        let mut c = Cluster::new(2, 256, NetModel::lan_1989());
        let origin = c.create_world(NodeId(0));
        for (&vpn, &b) in &base {
            c.write(origin, vpn, &[b]).unwrap();
        }
        let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
        for (&vpn, &b) in &edits {
            c.write(replica, vpn, &[b]).unwrap();
        }
        // Expected view and expected dirty count (content-based).
        let mut expected = base.clone();
        let mut dirty = 0usize;
        for (&vpn, &b) in &edits {
            let old = base.get(&vpn).copied().unwrap_or(0);
            if old != b {
                dirty += 1;
            }
            expected.insert(vpn, b);
        }
        let (_, pages) = c.commit_back(origin, replica).unwrap();
        prop_assert_eq!(pages, dirty, "only genuinely changed pages travel");
        for vpn in 0..30u64 {
            let want = expected.get(&vpn).copied().unwrap_or(0);
            prop_assert_eq!(c.read(origin, vpn, 1).unwrap(), vec![want]);
        }
        // The replica's node is clean.
        prop_assert_eq!(c.node(NodeId(1)).store().world_count(), 0);
    }

    /// With delta rfork on, commit_back compares only the pages in its
    /// pinned base's two diffs. Whatever the origin and the child do
    /// after the rfork — overlapping or disjoint edits, rewrites that
    /// restore the bytes, vpns neither mapped before — and whether that
    /// base is still cached or was evicted, the dirty set must be the one
    /// a read-and-compare of every page the child maps finds.
    #[test]
    fn narrowed_commit_back_matches_the_full_compare(
        base in proptest::collection::btree_map(0u64..24, any::<u8>(), 1..12),
        before in proptest::collection::btree_map(0u64..32, any::<u8>(), 0..6),
        after in proptest::collection::btree_map(0u64..32, any::<u8>(), 0..8),
        edits in proptest::collection::btree_map(0u64..32, any::<u8>(), 0..8),
        rewrites in proptest::collection::btree_set(0u64..32, 0..6),
        evict in any::<bool>(),
    ) {
        const PAGE: usize = 256;
        const VPNS: u64 = 32;
        let mut c = Cluster::new(2, PAGE, NetModel::datacenter());
        c.set_delta_rfork(true);
        let origin = c.create_world(NodeId(0));
        for (&vpn, &b) in &base {
            c.write(origin, vpn, &[b]).unwrap();
        }
        // The first rfork pins the base; the second ships a delta on it.
        let (first, _) = c.rfork(origin, NodeId(1)).unwrap();
        for (&vpn, &b) in &before {
            c.write(origin, vpn, &[b]).unwrap();
        }
        let (child, _) = c.rfork(origin, NodeId(1)).unwrap();
        for (&vpn, &b) in &after {
            c.write(origin, vpn, &[b]).unwrap();
        }
        for (&vpn, &b) in &edits {
            c.write(child, vpn, &[b]).unwrap();
        }
        for &vpn in &rewrites {
            let same = c.read(child, vpn, PAGE).unwrap();
            c.write(child, vpn, &same).unwrap();
        }
        if evict {
            // A second origin pinned on the same node under a budget
            // that holds one base pushes the first origin's base out.
            c.set_net_cache_bytes(1);
            let other = c.create_world(NodeId(0));
            c.write(other, 0, b"other").unwrap();
            c.rfork(other, NodeId(1)).unwrap();
            prop_assert_eq!(c.net_cache_stats().0, 1, "the first base was evicted");
        }

        // The oracle: read and compare every page the child maps.
        let mut expected: Vec<Vec<u8>> =
            (0..VPNS).map(|vpn| c.read(origin, vpn, PAGE).unwrap()).collect();
        let mut dirty = 0usize;
        for vpn in c.node(NodeId(1)).store().mapped_vpns(child.world).unwrap() {
            let mine = c.read(child, vpn, PAGE).unwrap();
            if mine != expected[vpn as usize] {
                dirty += 1;
                expected[vpn as usize] = mine;
            }
        }

        let (_, pages) = c.commit_back(origin, child).unwrap();
        prop_assert_eq!(pages, dirty, "the narrowed dirty set is the full one");
        for vpn in 0..VPNS {
            prop_assert_eq!(
                &c.read(origin, vpn, PAGE).unwrap(),
                &expected[vpn as usize],
                "origin bytes at vpn {}", vpn
            );
        }
        c.discard(first).unwrap();
    }
}
