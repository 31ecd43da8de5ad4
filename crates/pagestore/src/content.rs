//! Content addressing: the page hash and the hash→frame index.
//!
//! [`page_hash`] is a single-pass, SIMD-friendly 64-bit hash: the page is
//! consumed as four independent 8-byte lanes (a 32-byte stripe per
//! iteration, no cross-lane dependency, so the compiler can vectorise and
//! a superscalar core can run the lanes in parallel), each lane folded
//! with a widening multiply-mix, and the lanes combined at the end. It is
//! hand-rolled — this workspace builds with no registry — and it is *not*
//! cryptographic: equal hashes are a hint, never proof. Every consumer
//! that shares memory on a hash match verifies the full page bytes first
//! (see [`crate::PageStore`]'s dedupe path).
//!
//! [`ContentIndex`] maps `page_hash → FrameId` with lock-free reads *and*
//! writes: a fixed power-of-two table of packed `AtomicU64` entries
//! (`tag₃₂ | frame+1`). It is a cache of hints, not a registry — inserts
//! may overwrite colliding slots, entries go stale when a frame is
//! mutated in place or freed (both clear eagerly, see
//! [`crate::frame::FrameTable`]), and a lookup's candidate must always be
//! byte- or hash-verified under the frame's data mutex before use.

use std::sync::atomic::{AtomicU64, Ordering};

/// Slots in the content index: 32 Ki entries, 256 KiB of atomics. The
/// index is a hint cache, so a collision merely evicts; 32 Ki slots
/// comfortably cover every workload in this repo (the contention bench
/// touches 256 unique pages, rootfinder far fewer).
const INDEX_SLOTS: usize = 1 << 15;

/// Hash a page's bytes: 8-byte little-endian lanes, widening
/// multiply-mix per lane, length folded in at the end. Never returns 0 —
/// the frame table uses 0 as "not indexed".
pub fn page_hash(bytes: &[u8]) -> u64 {
    // Odd 64-bit constants (golden ratio and xxhash/splitmix-style
    // primes); any fixed odd multipliers with high bit entropy do.
    const K0: u64 = 0x9E37_79B9_7F4A_7C15;
    const K1: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const K2: u64 = 0x1656_67B1_9E37_79F9;
    const K3: u64 = 0x2545_F491_4F6C_DD1D;

    #[inline(always)]
    fn mix(x: u64, k: u64) -> u64 {
        // The wide multiply: 64×64→128, folded high-into-low. One
        // multiply diffuses every input bit across the whole lane.
        let p = (x as u128).wrapping_mul(k as u128);
        (p as u64) ^ ((p >> 64) as u64)
    }

    #[inline(always)]
    fn lane_word(block: &[u8], lane: usize) -> u64 {
        u64::from_le_bytes(block[lane * 8..lane * 8 + 8].try_into().expect("8 bytes"))
    }

    let mut lanes = [K0, K1, K2, K3];
    let keys = [K1, K2, K3, K0];
    let mut chunks = bytes.chunks_exact(32);
    for block in &mut chunks {
        // Four independent lanes per 32-byte stripe: no dependency
        // between them, so this loop vectorises / pipelines cleanly.
        for i in 0..4 {
            lanes[i] = mix(lanes[i] ^ lane_word(block, i), keys[i]);
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        // One final padded stripe; the length fold below keeps a padded
        // tail from colliding with genuine trailing zeroes.
        let mut tail = [0u8; 32];
        tail[..rem.len()].copy_from_slice(rem);
        for i in 0..4 {
            lanes[i] = mix(lanes[i] ^ lane_word(&tail, i), keys[i]);
        }
    }
    let folded = mix(
        mix(lanes[0] ^ lanes[1], K2) ^ mix(lanes[2] ^ lanes[3], K3) ^ bytes.len() as u64,
        K0,
    );
    // 0 is the frame table's "not indexed" sentinel; remap the one value.
    if folded == 0 {
        K0
    } else {
        folded
    }
}

/// Lock-free hash→frame hint table. One packed `AtomicU64` per slot:
/// the high 32 bits are the hash's tag (its high half), the low 32 bits
/// are `frame index + 1` (0 = empty). Packing both halves into one word
/// makes insert/lookup/clear single atomic operations — no lock anywhere.
#[derive(Debug)]
pub(crate) struct ContentIndex {
    slots: Box<[AtomicU64]>,
}

impl ContentIndex {
    pub(crate) fn new() -> Self {
        ContentIndex {
            slots: (0..INDEX_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    pub(crate) fn slot_of(hash: u64) -> usize {
        hash as usize & (INDEX_SLOTS - 1)
    }

    #[inline]
    fn pack(hash: u64, frame: u32) -> u64 {
        (hash & 0xFFFF_FFFF_0000_0000) | (frame as u64 + 1)
    }

    /// Publish `hash → frame`, overwriting whatever occupied the slot (a
    /// colliding entry is simply evicted — this is a cache of hints).
    pub(crate) fn insert(&self, hash: u64, frame: u32) {
        self.slots[Self::slot_of(hash)].store(Self::pack(hash, frame), Ordering::Release);
    }

    /// The frame index the table currently hints at for `hash`, if the
    /// slot is occupied and its tag matches. The caller must verify the
    /// frame's actual bytes before trusting the hint.
    pub(crate) fn lookup(&self, hash: u64) -> Option<u32> {
        let entry = self.slots[Self::slot_of(hash)].load(Ordering::Acquire);
        if entry == 0 || (entry ^ hash) & 0xFFFF_FFFF_0000_0000 != 0 {
            return None;
        }
        Some((entry as u32) - 1)
    }

    /// Remove `hash → frame` if (and only if) that exact pairing still
    /// occupies the slot; a slot already overwritten by a newer frame is
    /// left alone. Called when a frame is freed or mutated in place.
    pub(crate) fn clear(&self, hash: u64, frame: u32) {
        let _ = self.slots[Self::slot_of(hash)].compare_exchange(
            Self::pack(hash, frame),
            0,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// Occupied entries as `(slot, frame index)` pairs — the verifier's
    /// view. Only consistent while the caller excludes frame frees (the
    /// store holds every shard lock).
    pub(crate) fn snapshot(&self) -> Vec<(usize, u32)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let e = s.load(Ordering::Acquire);
                (e != 0).then(|| (i, (e as u32) - 1))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_content_sensitive() {
        let a = vec![7u8; 2048];
        let mut b = a.clone();
        assert_eq!(page_hash(&a), page_hash(&a));
        b[2047] ^= 1;
        assert_ne!(page_hash(&a), page_hash(&b), "last byte must matter");
        b[2047] ^= 1;
        b[0] ^= 1;
        assert_ne!(page_hash(&a), page_hash(&b), "first byte must matter");
    }

    #[test]
    fn hash_depends_on_length_not_just_content() {
        // A short page and a longer zero-padded page must differ even
        // though the padded tail stripe sees identical bytes.
        let short = vec![0u8; 40];
        let long = vec![0u8; 64];
        assert_ne!(page_hash(&short), page_hash(&long));
        assert_ne!(page_hash(&[]), 0, "hash never returns the 0 sentinel");
    }

    #[test]
    fn hash_handles_unaligned_tails() {
        for len in [1usize, 7, 8, 31, 32, 33, 63, 64, 65, 2048] {
            let v: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let h = page_hash(&v);
            assert_ne!(h, 0);
            assert_eq!(h, page_hash(&v), "len {len} must be stable");
        }
    }

    #[test]
    fn hash_spreads_single_bit_flips() {
        // Weak avalanche check: flipping any one bit of a page moves the
        // hash, and the set of hashes for 64 single-bit variants has no
        // duplicates (a multiply-mix that dropped bits would collide).
        let base = vec![0xA5u8; 64];
        let h0 = page_hash(&base);
        let mut seen = std::collections::HashSet::new();
        seen.insert(h0);
        for bit in 0..64 {
            let mut v = base.clone();
            v[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(page_hash(&v)), "bit {bit} collided");
        }
    }

    #[test]
    fn index_round_trips_and_clears() {
        let ix = ContentIndex::new();
        let h = page_hash(b"some page");
        assert_eq!(ix.lookup(h), None);
        ix.insert(h, 42);
        assert_eq!(ix.lookup(h), Some(42));
        // Clearing a different pairing leaves the entry alone.
        ix.clear(h, 41);
        assert_eq!(ix.lookup(h), Some(42));
        ix.clear(h, 42);
        assert_eq!(ix.lookup(h), None);
        assert!(ix.snapshot().is_empty());
    }

    #[test]
    fn colliding_slot_evicts_the_older_entry() {
        let ix = ContentIndex::new();
        let h = page_hash(b"page A");
        // Same slot and tag (same hash value from different frames —
        // duplicate content committed twice): newest frame wins.
        ix.insert(h, 1);
        ix.insert(h, 2);
        assert_eq!(ix.lookup(h), Some(2));
        // The evicted frame's clear must not disturb the newer entry.
        ix.clear(h, 1);
        assert_eq!(ix.lookup(h), Some(2));
        assert_eq!(ix.snapshot(), vec![(ContentIndex::slot_of(h), 2)]);
    }

    #[test]
    fn tag_mismatch_is_a_miss() {
        let ix = ContentIndex::new();
        let h = page_hash(b"page A");
        ix.insert(h, 7);
        // Same slot, different tag: flip a high bit.
        let other = h ^ (1 << 40);
        assert_eq!(ContentIndex::slot_of(h), ContentIndex::slot_of(other));
        assert_eq!(ix.lookup(other), None);
    }
}
