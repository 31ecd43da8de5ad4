//! The content index cannot break an rfork. Both stores of a TCP cluster
//! run with their index armed while thousands of steady delta blocks go
//! by, each made of three separate `Cluster::rfork`s of one origin: the
//! shape in which the second and third replica could once have been sent
//! refs to the pages the first had just left on the receiver. Every block
//! must commit, and every delta rfork must ship exactly the image that
//! carries its changed pages inline.

use worlds_obs::Registry;
use worlds_remote::{Cluster, NetModel, NodeId};

const PAGE: usize = 1024;
const PAGES: u64 = 64;
const HOT: [u64; 8] = [1, 9, 17, 25, 33, 41, 49, 57];
const ALTS: usize = 3;
const WINNER: usize = 1;
const BLOCKS: u64 = 2000;
/// Distinct payload pages, reused round-robin across blocks.
const POOL: usize = 1021;
/// Header, then per changed page its vpn, its record kind and the page.
const DELTA_BYTES: u64 = 32 + HOT.len() as u64 * (8 + 1 + PAGE as u64);

/// `n` distinct pages of xorshift bytes, spread over the whole index.
fn pages(n: usize) -> Vec<Vec<u8>> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            (0..PAGE / 8)
                .flat_map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x.to_le_bytes()
                })
                .collect()
        })
        .collect()
}

/// Which page of the pool alternative `alt` of `block` writes at hot
/// slot `slot`: the 24 writes of a block are distinct, and differ from
/// the block before's.
fn payload(block: u64, alt: usize, slot: usize) -> usize {
    (block as usize * ALTS * HOT.len() + alt * HOT.len() + slot) % POOL
}

#[test]
fn thousands_of_delta_blocks_commit_with_the_index_armed_on_both_nodes() {
    let mut c = Cluster::tcp(2, PAGE, NetModel::ideal(), Registry::disabled()).unwrap();
    c.set_delta_rfork(true);
    for node in 0..2 {
        c.node(NodeId(node)).store().set_dedupe(true);
    }
    let there = NodeId(1);
    let pool = pages(POOL + PAGES as usize);
    let origin = c.create_world(NodeId(0));
    for vpn in 0..PAGES {
        c.write(origin, vpn, &pool[POOL + vpn as usize]).unwrap();
    }
    // The first rfork pins the delta base with a full image.
    let (pinned, _) = c.rfork(origin, there).unwrap();
    c.discard(pinned).unwrap();

    for block in 0..BLOCKS {
        let mut replicas = Vec::with_capacity(ALTS);
        for alt in 0..ALTS {
            let before = c.node(there).bytes_received();
            let (replica, _) = c.rfork(origin, there).unwrap_or_else(|e| {
                panic!("block {block}, rfork {alt}: {e}");
            });
            let shipped = c.node(there).bytes_received() - before;
            // The first block ships the header alone: nothing has changed
            // since the base was pinned.
            let want = if block == 0 { 32 } else { DELTA_BYTES };
            assert_eq!(shipped, want, "block {block}, rfork {alt}");
            replicas.push(replica);
        }
        for (alt, &replica) in replicas.iter().enumerate() {
            for (slot, &vpn) in HOT.iter().enumerate() {
                c.write(replica, vpn, &pool[payload(block, alt, slot)])
                    .unwrap();
            }
        }
        let (_, pages) = c.commit_back(origin, replicas[WINNER]).unwrap();
        assert_eq!(pages, HOT.len(), "block {block}");
        for (alt, &replica) in replicas.iter().enumerate() {
            if alt != WINNER {
                c.discard(replica).unwrap();
            }
        }
        for (slot, &vpn) in HOT.iter().enumerate() {
            assert_eq!(
                c.read(origin, vpn, PAGE).unwrap(),
                pool[payload(block, WINNER, slot)],
                "block {block}, vpn {vpn}"
            );
        }
    }
    // Only the pinned base is left on the receiver.
    assert_eq!(c.node(there).store().world_count(), 1);
    for node in 0..2 {
        c.node(NodeId(node)).store().verify_refcounts().unwrap();
    }
}
