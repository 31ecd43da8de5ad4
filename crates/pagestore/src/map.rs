//! Per-world page maps: virtual page number → frame, structurally shared.
//!
//! This is the "per-process descriptor table" of the paper's Figure 2, and
//! §2.3's page-map inheritance — a fork copies *only a descriptor*. The map
//! is persistent and two levels deep:
//!
//! * a **directory**: a small vector of `(vpn >> LEAF_BITS, leaf)` pairs,
//!   sorted by key. Vpns are sparse `u64`s, so the directory is searched,
//!   not indexed; it is owned by exactly one map.
//! * **leaves**: `Arc`-shared arrays of [`LEAF_WIDTH`] `Option<FrameId>`
//!   slots. A leaf's `Arc` count is the number of directories holding it.
//!
//! Cloning a map (a fork) copies the directory and bumps one count per
//! leaf; no slot is visited. A leaf that several maps hold is immutable:
//! [`PageMap::insert`] path-copies it on first write and hands the old
//! handle back, so an unwritten region of a forked world never costs
//! anything again — not at fork, not at adopt, not at drop.
//!
//! This module is structure only. What a *slot* means for a frame's
//! reference count — and who releases a leaf's frames when its last holder
//! lets go — is the store's contract (see the `store` module docs); the
//! crate-private half of this API reports exactly what the store needs to
//! keep it.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use crate::frame::FrameId;
use crate::page::Vpn;

/// log2 of the slots per leaf. 16 slots: a 2 048-page world forks with 128
/// count bumps, and a CoW fault into a shared leaf re-references 15
/// neighbours. Wider leaves make forks cheaper and first writes dearer;
/// on the `store_fork` round (4 forks, 32 scattered first writes) 16 beat
/// 32 and 64, and on `store_write` the three were level.
const LEAF_BITS: u32 = 4;

/// Slots per leaf.
pub(crate) const LEAF_WIDTH: usize = 1 << LEAF_BITS;

#[inline]
fn split(vpn: Vpn) -> (u64, usize) {
    (vpn >> LEAF_BITS, (vpn & (LEAF_WIDTH as u64 - 1)) as usize)
}

/// One fixed-width run of the map. Never empty once in a directory (there
/// is no unmap), never mutated while shared.
#[derive(Debug, Clone)]
pub(crate) struct Leaf {
    slots: [Option<FrameId>; LEAF_WIDTH],
}

impl Leaf {
    /// The frames this leaf's slots name, in slot order.
    pub(crate) fn frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.slots.iter().flatten().copied()
    }

    /// [`Leaf::frames`] minus the slot `vpn` falls in: the slots a
    /// path-copy made on behalf of a write to `vpn` duplicated.
    pub(crate) fn frames_beside(&self, vpn: Vpn) -> impl Iterator<Item = FrameId> + '_ {
        let skip = split(vpn).1;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.filter(|_| i != skip))
    }
}

/// What [`PageMap::insert`] displaced, i.e. the reference bookkeeping it
/// leaves to the caller.
#[derive(Debug)]
pub(crate) enum Displaced {
    /// `vpn` was unmapped and its leaf was new or exclusively this map's:
    /// one slot gained, nothing lost.
    Nothing,
    /// The leaf was exclusively this map's and the slot was overwritten in
    /// place: the caller now holds the old frame's slot reference.
    Frame(FrameId),
    /// The leaf was shared, so the map now holds a private copy of it with
    /// `vpn`'s slot replaced. Every *other* occupied slot was duplicated
    /// ([`Leaf::frames_beside`]) and needs a reference; after taking them
    /// the caller lets go of this handle on the old leaf, releasing the
    /// leaf's own slot references if it turns out to be the last one.
    Leaf(Arc<Leaf>),
}

/// A world's page map. Sparse: absent VPNs read as demand-zero. Iteration
/// is in ascending VPN order, which keeps diffs, dirty-page accounting and
/// file extents deterministic.
#[derive(Debug, Clone, Default)]
pub struct PageMap {
    /// `(vpn >> LEAF_BITS, leaf)`, ascending by key.
    dir: Vec<(u64, Arc<Leaf>)>,
    /// Occupied slots across all leaves.
    len: usize,
}

impl PageMap {
    /// An empty map (a fresh world before any write).
    pub fn new() -> Self {
        PageMap::default()
    }

    fn leaf(&self, key: u64) -> Option<&Arc<Leaf>> {
        let at = self.dir.binary_search_by_key(&key, |e| e.0).ok()?;
        Some(&self.dir[at].1)
    }

    /// Frame currently mapped at `vpn`, if any.
    pub fn get(&self, vpn: Vpn) -> Option<FrameId> {
        let (key, slot) = split(vpn);
        self.leaf(key)?.slots[slot]
    }

    /// [`PageMap::get`], plus whether the path to the slot is exclusively
    /// this map's (no other map holds the leaf). An exclusive path can
    /// only become shared by cloning *this* map.
    pub(crate) fn probe(&self, vpn: Vpn) -> Option<(FrameId, bool)> {
        let (key, slot) = split(vpn);
        let leaf = self.leaf(key)?;
        let frame = leaf.slots[slot]?;
        let exclusive = Arc::strong_count(leaf) == 1;
        if exclusive {
            // `strong_count` is a relaxed load. This fence pairs it with
            // the Release decrement of whichever map let go of the leaf
            // last, so the references that map took on this leaf's frames
            // while path-copying it are visible before the caller reads a
            // frame's count.
            fence(Ordering::Acquire);
        }
        Some((frame, exclusive))
    }

    /// Map `vpn` to `frame`, path-copying the leaf if another map holds it
    /// too. The caller owns the reference bookkeeping the returned
    /// [`Displaced`] spells out.
    pub(crate) fn insert(&mut self, vpn: Vpn, frame: FrameId) -> Displaced {
        let (key, slot) = split(vpn);
        let at = match self.dir.binary_search_by_key(&key, |e| e.0) {
            Ok(at) => at,
            Err(at) => {
                let mut leaf = Leaf {
                    slots: [None; LEAF_WIDTH],
                };
                leaf.slots[slot] = Some(frame);
                self.dir.insert(at, (key, Arc::new(leaf)));
                self.len += 1;
                return Displaced::Nothing;
            }
        };
        let entry = &mut self.dir[at].1;
        if entry.slots[slot].is_none() {
            self.len += 1;
        }
        match Arc::get_mut(entry) {
            Some(leaf) => match leaf.slots[slot].replace(frame) {
                Some(old) => Displaced::Frame(old),
                None => Displaced::Nothing,
            },
            None => {
                let mut leaf = Leaf::clone(entry);
                leaf.slots[slot] = Some(frame);
                Displaced::Leaf(std::mem::replace(entry, Arc::new(leaf)))
            }
        }
    }

    /// Number of mapped (materialised) pages.
    pub fn mapped_pages(&self) -> usize {
        self.len
    }

    /// Iterate `(vpn, frame)` pairs in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, FrameId)> + '_ {
        self.dir
            .iter()
            .flat_map(|(key, leaf)| leaf_pairs(*key, leaf))
    }

    /// This map's handles on its leaves, in key order (a leaf several maps
    /// hold shows up once per map).
    pub(crate) fn leaves(&self) -> impl Iterator<Item = &Arc<Leaf>> + '_ {
        self.dir.iter().map(|(_, leaf)| leaf)
    }

    /// Consume the map into its leaf handles, for release.
    pub(crate) fn into_leaves(self) -> impl Iterator<Item = Arc<Leaf>> {
        self.dir.into_iter().map(|(_, leaf)| leaf)
    }

    /// VPNs where `self` maps a different frame than `other` (including VPNs
    /// mapped on only one side). After a COW fork this is exactly the set of
    /// pages written since the fork — the numerator of the paper's *write
    /// fraction*. Leaves both maps hold are skipped by pointer, so the walk
    /// costs O(directory + slots of diverged leaves).
    pub fn diff(&self, other: &PageMap) -> Vec<Vpn> {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let (a, b) = (&self.dir, &other.dir);
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < a.len() || j < b.len() {
            let order = match (a.get(i), b.get(j)) {
                (Some(ea), Some(eb)) => ea.0.cmp(&eb.0),
                (Some(_), None) => Less,
                (None, _) => Greater,
            };
            match order {
                Less => out.extend(leaf_pairs(a[i].0, &a[i].1).map(|(vpn, _)| vpn)),
                Greater => out.extend(leaf_pairs(b[j].0, &b[j].1).map(|(vpn, _)| vpn)),
                Equal if Arc::ptr_eq(&a[i].1, &b[j].1) => {}
                Equal => {
                    let (base, la, lb) = (a[i].0 << LEAF_BITS, &a[i].1, &b[j].1);
                    out.extend(
                        (0..LEAF_WIDTH)
                            .filter(|&s| la.slots[s] != lb.slots[s])
                            .map(|s| base | s as u64),
                    );
                }
            }
            i += (order != Greater) as usize;
            j += (order != Less) as usize;
        }
        out
    }
}

/// The occupied slots of `leaf`, as `(vpn, frame)` in ascending order.
fn leaf_pairs(key: u64, leaf: &Leaf) -> impl Iterator<Item = (Vpn, FrameId)> + '_ {
    let base = key << LEAF_BITS;
    leaf.slots
        .iter()
        .enumerate()
        .filter_map(move |(i, slot)| slot.map(|f| (base | i as u64, f)))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn fid(n: u32) -> FrameId {
        FrameId(n)
    }

    #[test]
    fn empty_map_reads_none() {
        let m = PageMap::new();
        assert_eq!(m.get(0), None);
        assert_eq!(m.probe(u64::MAX), None);
        assert_eq!(m.mapped_pages(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn insert_get_overwrite() {
        let mut m = PageMap::new();
        assert!(matches!(m.insert(5, fid(1)), Displaced::Nothing));
        assert_eq!(m.get(5), Some(fid(1)));
        assert!(matches!(m.insert(5, fid(2)), Displaced::Frame(f) if f == fid(1)));
        assert_eq!(m.get(5), Some(fid(2)));
        assert_eq!(m.mapped_pages(), 1, "an overwrite maps no new page");
        assert_eq!(m.get(6), None, "same leaf, empty slot");
    }

    #[test]
    fn iteration_is_vpn_ordered_across_leaves() {
        let mut m = PageMap::new();
        for (i, vpn) in [1 << 40, 9, u64::MAX, 2, 33].into_iter().enumerate() {
            m.insert(vpn, fid(i as u32));
        }
        let vpns: Vec<Vpn> = m.iter().map(|(v, _)| v).collect();
        assert_eq!(vpns, vec![2, 9, 33, 1 << 40, u64::MAX]);
    }

    #[test]
    fn clone_shares_leaves_and_first_write_path_copies_one() {
        let mut a = PageMap::new();
        for vpn in 0..3 * LEAF_WIDTH as u64 {
            a.insert(vpn, fid(vpn as u32));
        }
        assert_eq!(a.probe(40), Some((fid(40), true)));
        let mut b = a.clone();
        assert_eq!(a.probe(40), Some((fid(40), false)), "fork shares the path");
        assert!(a.leaves().zip(b.leaves()).all(|(x, y)| Arc::ptr_eq(x, y)));

        // The first write into a shared leaf copies that leaf only, and
        // reports the old one with every duplicated neighbour.
        let Displaced::Leaf(old) = b.insert(40, fid(999)) else {
            panic!("a shared leaf must be path-copied");
        };
        assert_eq!(old.frames_beside(40).count(), LEAF_WIDTH - 1);
        assert!(old.frames_beside(40).all(|f| f != fid(40)));
        assert_eq!(old.frames().count(), LEAF_WIDTH);
        drop(old);
        let shared = a
            .leaves()
            .zip(b.leaves())
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        assert_eq!(shared, 2, "the other two leaves stay shared");
        assert_eq!(a.get(40), Some(fid(40)), "the original is untouched");
        assert_eq!(b.probe(40), Some((fid(999), true)));
        assert_eq!(a.probe(40), Some((fid(40), true)), "sole holder again");
        // The second write to the now-private leaf is in place.
        assert!(matches!(b.insert(41, fid(1000)), Displaced::Frame(f) if f == fid(41)));
        assert_eq!(a.diff(&b), vec![40, 41]);
    }

    #[test]
    fn diff_finds_divergent_pages() {
        let mut a = PageMap::new();
        let mut b = PageMap::new();
        a.insert(1, fid(10)); // shared, same frame
        b.insert(1, fid(10));
        a.insert(2, fid(11)); // same vpn, different frame (COW'd)
        b.insert(2, fid(12));
        a.insert(3, fid(13)); // only in a
        b.insert(4, fid(14)); // only in b
        a.insert(1 << 40, fid(15)); // a leaf only a has
        b.insert(u64::MAX, fid(16)); // a leaf only b has
        assert_eq!(a.diff(&b), vec![2, 3, 4, 1 << 40, u64::MAX]);
        assert_eq!(b.diff(&a), vec![2, 3, 4, 1 << 40, u64::MAX]);
        assert!(a.diff(&a.clone()).is_empty());
    }

    /// Sparse vpns that straddle leaf boundaries at both ends of the range.
    fn any_vpn(rng: &mut StdRng) -> Vpn {
        const W: u64 = LEAF_WIDTH as u64;
        match rng.gen_range(0..8u32) {
            0 => [0, W - 1, W, 1 << 40, u64::MAX][rng.gen_range(0..5usize)],
            1 | 2 => rng.gen_range(0..3 * W),
            3 | 4 => (1 << 40) - W + rng.gen_range(0..2 * W),
            _ => u64::MAX - rng.gen_range(0..2 * W),
        }
    }

    /// Model-based: a handful of maps forked from one another, driven by
    /// seeded random inserts, overwrites and clones against a flat
    /// `BTreeMap` oracle per map.
    #[test]
    fn random_ops_agree_with_a_flat_oracle() {
        type Oracle = BTreeMap<Vpn, FrameId>;
        let oracle_diff = |a: &Oracle, b: &Oracle| -> Vec<Vpn> {
            let keys: std::collections::BTreeSet<Vpn> = a.keys().chain(b.keys()).copied().collect();
            keys.into_iter().filter(|k| a.get(k) != b.get(k)).collect()
        };
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x9a6e_0000 + seed);
            let mut worlds: Vec<(PageMap, Oracle)> = vec![Default::default()];
            let mut next_frame = 0u32;
            for step in 0..600 {
                let at = rng.gen_range(0..worlds.len());
                match rng.gen_range(0..10u32) {
                    // Clone-as-fork, replacing a random map once eight exist.
                    0 => {
                        let forked = worlds[at].clone();
                        if worlds.len() < 8 {
                            worlds.push(forked);
                        } else {
                            let victim = rng.gen_range(0..worlds.len());
                            worlds[victim] = forked;
                        }
                    }
                    // Overwrite a page the map already has.
                    1 | 2 if !worlds[at].1.is_empty() => {
                        let (map, oracle) = &mut worlds[at];
                        let nth = rng.gen_range(0..oracle.len());
                        let vpn = *oracle.keys().nth(nth).expect("in range");
                        let was = oracle.insert(vpn, fid(next_frame));
                        match map.insert(vpn, fid(next_frame)) {
                            Displaced::Frame(old) => assert_eq!(Some(old), was),
                            Displaced::Leaf(old) => {
                                assert!(old.frames().any(|f| Some(f) == was))
                            }
                            Displaced::Nothing => {
                                panic!("seed {seed}: overwrite displaced nothing")
                            }
                        }
                        next_frame += 1;
                    }
                    _ => {
                        let (map, oracle) = &mut worlds[at];
                        let vpn = any_vpn(&mut rng);
                        let was = oracle.insert(vpn, fid(next_frame));
                        let displaced = map.insert(vpn, fid(next_frame));
                        if let Displaced::Frame(old) = displaced {
                            assert_eq!(Some(old), was, "seed {seed} step {step}");
                        }
                        next_frame += 1;
                    }
                }
                let other = rng.gen_range(0..worlds.len());
                let (map, oracle) = &worlds[at];
                assert_eq!(map.mapped_pages(), oracle.len(), "seed {seed} step {step}");
                let probe = any_vpn(&mut rng);
                assert_eq!(map.get(probe), oracle.get(&probe).copied());
                assert_eq!(map.probe(probe).map(|(f, _)| f), map.get(probe));
                assert_eq!(
                    map.diff(&worlds[other].0),
                    oracle_diff(oracle, &worlds[other].1),
                    "seed {seed} step {step}"
                );
            }
            for (map, oracle) in &worlds {
                let pairs: Vec<(Vpn, FrameId)> = oracle.iter().map(|(&v, &f)| (v, f)).collect();
                assert_eq!(map.iter().collect::<Vec<_>>(), pairs, "seed {seed}");
                let slots: usize = map.leaves().map(|leaf| leaf.frames().count()).sum();
                assert_eq!(slots, oracle.len(), "leaves hold exactly the mapped slots");
            }
        }
    }
}
