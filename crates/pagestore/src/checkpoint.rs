//! World checkpoint/restore — the `rfork()` substrate.
//!
//! §3.4: the distributed case was implemented with a *remote fork* built
//! on checkpoint/restart — "the state of the process was dumped into a
//! file in such a way that the file is executable; a bootstrapping routine
//! restores the registers and data segments and returns control to the
//! caller". We reproduce the state-shipping half: a world's pages
//! serialise to a self-describing byte image and restore into any store
//! (including another store, standing in for another node). The measured
//! image size × link bandwidth is exactly the ~1 s rfork cost the
//! `CostModel::rfork_lan` preset encodes.
//!
//! There is one image format (little-endian), written by one encoder and
//! read by one walk in [`restore`]:
//!
//! ```text
//! magic "MWCK" | version u32 | page_size u64 | record_count u64 | base_world u64
//! then per record: vpn u64 | kind u8
//!                  | kind 0: page_size inline bytes | kind 1: content hash u64
//! ```
//!
//! [`restore`] builds a **new world**: a COW fork of `base_world` (which
//! must already live in the target store — for `rfork` that is the replica
//! an earlier image restored), or a fresh empty world when `base_world` is
//! 0 (world ids start at 1), with every record applied on top. The three
//! public encoders differ only in which records they emit:
//!
//! * [`checkpoint`] — a **full** image: every mapped page inline against
//!   base 0.
//! * [`checkpoint_delta`] — only the pages whose bytes differ from a
//!   stated base world, inline. Repeated rfork of sibling worlds then
//!   ships KBs instead of the full image.
//! * [`checkpoint_content`] — the same pages, but the sender first derives
//!   a `(vpn, hash)` manifest ([`delta_manifest`]), asks the receiver
//!   which hashes its content index already holds, and ships a *ref*
//!   record (17 bytes) for each present page instead of the page itself.
//!
//! [`checkpoint_into`] and [`checkpoint_content_into`] write the same
//! images into a buffer the caller keeps, so a sender that ships image
//! after image (a cluster's rforks) allocates no image-sized memory once
//! its buffer has grown to the largest one.
//!
//! The receiver maps refs through [`PageStore::map_content`], which
//! re-hashes the local candidate before sharing — a stale or colliding
//! index entry fails the restore (the sender re-encodes the same manifest
//! with no refs) rather than aliasing wrong bytes.
//!
//! Images are ephemeral wire payloads between nodes of one build; nothing
//! stores one, so there is no older version to stay readable.

use std::time::Instant;

use crate::content::page_hash;
use crate::cursor::Cursor;
use crate::error::{PageStoreError, Result};
use crate::page::Vpn;
use crate::store::{PageStore, WorldId};

const MAGIC: &[u8] = b"MWCK";
/// The record-stream format above (1 and 2 numbered fixed-record layouts
/// no build writes any more).
const VERSION: u32 = 3;
/// Header bytes: magic + version + page_size + record_count + base_world.
const HEADER: usize = 32;
/// Record kinds: a full inline page, or a hash ref to content the
/// receiver already holds.
const REC_INLINE: u8 = 0;
const REC_REF: u8 = 1;

/// Hand `each` every page of `world` whose **bytes** differ from `base`,
/// ascending, with the `world`-side bytes. The candidate set is the COW
/// map diff (pages written since the fork), narrowed by content
/// comparison, so a write that restored the original bytes is skipped.
fn dirty_pages(
    store: &PageStore,
    world: WorldId,
    base: WorldId,
    mut each: impl FnMut(Vpn, &[u8]),
) -> Result<()> {
    let page_size = store.page_size();
    let mut wbuf = vec![0u8; page_size];
    let mut bbuf = vec![0u8; page_size];
    for vpn in store.diff_worlds(world, base)? {
        store.read(world, vpn, 0, &mut wbuf)?;
        store.read(base, vpn, 0, &mut bbuf)?;
        if wbuf != bbuf {
            each(vpn, &wbuf);
        }
    }
    Ok(())
}

/// The one image writer: clear `out`, then write the header and one
/// record per entry of `records` into it — `(vpn, Some(hash))` ships a
/// ref, `(vpn, None)` ships `world`'s page inline, appended straight from
/// the frame with no zero-fill first. The buffer is grown to the exact
/// image size at most once, so a caller that keeps it across images
/// allocates nothing for images that fit. Serialisation is real work (not
/// simulated), so the announced duration is measured wall time.
fn write_image_into(
    store: &PageStore,
    world: WorldId,
    base_on_target: u64,
    records: &[(Vpn, Option<u64>)],
    out: &mut Vec<u8>,
) -> Result<()> {
    let started = Instant::now();
    let page_size = store.page_size();
    let refs = records.iter().filter(|(_, hash)| hash.is_some()).count();
    let body = records.len() * 9 + refs * 8 + (records.len() - refs) * page_size;
    out.clear();
    out.reserve_exact(HEADER + body);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(page_size as u64).to_le_bytes());
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    out.extend_from_slice(&base_on_target.to_le_bytes());
    for &(vpn, hash) in records {
        out.extend_from_slice(&vpn.to_le_bytes());
        match hash {
            Some(hash) => {
                out.push(REC_REF);
                out.extend_from_slice(&hash.to_le_bytes());
            }
            None => {
                out.push(REC_INLINE);
                store.read_append(world, vpn, 0, page_size, out)?;
            }
        }
    }
    store.obs().emit(|| {
        let parent = store.parent_of(world).ok().flatten().map(WorldId::raw);
        worlds_obs::Event::new(
            worlds_obs::EventKind::Checkpoint {
                pages: records.len() as u64,
                bytes: out.len() as u64,
                duration_ns: started.elapsed().as_nanos() as u64,
            },
            world.raw(),
            parent,
            0,
        )
    });
    Ok(())
}

/// Serialise every mapped page of `world` into a full image (base 0:
/// the receiver starts from an empty world).
pub fn checkpoint(store: &PageStore, world: WorldId) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    checkpoint_into(store, world, &mut out)?;
    Ok(out)
}

/// [`checkpoint`] into a buffer the caller keeps: `out` is cleared and
/// refilled, and only grows when the image outgrows it.
pub fn checkpoint_into(store: &PageStore, world: WorldId, out: &mut Vec<u8>) -> Result<()> {
    let records: Vec<_> = store
        .mapped_vpns(world)?
        .into_iter()
        .map(|vpn| (vpn, None))
        .collect();
    write_image_into(store, world, 0, &records, out)
}

/// Serialise only the pages of `world` whose **bytes** differ from
/// `base`, all inline. `base_on_target` is the world id the image's
/// receiver should fork as the base — for a same-store round trip that is
/// `base.raw()`; for `rfork` it is the id of the replica a previous image
/// restored on the remote store (cluster stores share one id allocator,
/// so the id is unambiguous either way).
///
/// Only dirty pages ship: a write that restored the original bytes
/// ships nothing.
pub fn checkpoint_delta(
    store: &PageStore,
    world: WorldId,
    base: WorldId,
    base_on_target: u64,
) -> Result<Vec<u8>> {
    let mut records = Vec::new();
    dirty_pages(store, world, base, |vpn, _| records.push((vpn, None)))?;
    let mut out = Vec::new();
    write_image_into(store, world, base_on_target, &records, &mut out)?;
    Ok(out)
}

/// The `(vpn, hash)` manifest a content delta ([`checkpoint_content`])
/// negotiates with: every page of `world` whose bytes differ from `base`,
/// paired with the content hash of the `world`-side bytes. Same candidate
/// narrowing as [`checkpoint_delta`] — a write that restored the original
/// bytes produces no entry.
pub fn delta_manifest(store: &PageStore, world: WorldId, base: WorldId) -> Result<Vec<(Vpn, u64)>> {
    let mut manifest = Vec::new();
    dirty_pages(store, world, base, |vpn, bytes| {
        manifest.push((vpn, page_hash(bytes)));
    })?;
    Ok(manifest)
}

/// Serialise a content delta: one record per `manifest` entry, shipped as
/// a 17-byte hash *ref* when the matching `present` flag says the
/// receiver's content index already holds those bytes, and as the full
/// inline page otherwise. `manifest` comes from [`delta_manifest`];
/// `present` from probing the receiver (one flag per entry, in order).
/// `base_on_target` is as in [`checkpoint_delta`].
pub fn checkpoint_content(
    store: &PageStore,
    world: WorldId,
    base_on_target: u64,
    manifest: &[(Vpn, u64)],
    present: &[bool],
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    checkpoint_content_into(store, world, base_on_target, manifest, present, &mut out)?;
    Ok(out)
}

/// [`checkpoint_content`] into a buffer the caller keeps, as
/// [`checkpoint_into`] does for a full image.
pub fn checkpoint_content_into(
    store: &PageStore,
    world: WorldId,
    base_on_target: u64,
    manifest: &[(Vpn, u64)],
    present: &[bool],
    out: &mut Vec<u8>,
) -> Result<()> {
    assert_eq!(
        manifest.len(),
        present.len(),
        "one presence flag per manifest entry"
    );
    let records: Vec<_> = manifest
        .iter()
        .zip(present)
        .map(|(&(vpn, hash), &have)| (vpn, have.then_some(hash)))
        .collect();
    write_image_into(store, world, base_on_target, &records, out)
}

/// What an image says, before any of it touches a store.
struct Parsed<'a> {
    base: u64,
    refs: Vec<(Vpn, u64)>,
    inline: Vec<(Vpn, &'a [u8])>,
}

/// The one record walk. Every field is the sender's claim and is read
/// through the bounds-checked [`Cursor`]; `count` only bounds the loop, so
/// no arithmetic on it can wrap and a count the bytes do not back runs
/// into the end of the buffer.
fn parse(image: &[u8], page_size: usize) -> std::result::Result<Parsed<'_>, String> {
    let mut cur = Cursor::new(image);
    if cur.take(4).ok() != Some(MAGIC) {
        return Err("bad magic".into());
    }
    if cur.u32()? != VERSION {
        return Err("unsupported version".into());
    }
    if cur.u64()? != page_size as u64 {
        return Err("page size mismatch".into());
    }
    let count = cur.u64()?;
    let mut parsed = Parsed {
        base: cur.u64()?,
        refs: Vec::new(),
        inline: Vec::new(),
    };
    for _ in 0..count {
        let vpn = cur.u64()?;
        match cur.u8()? {
            REC_INLINE => parsed.inline.push((vpn, cur.take(page_size)?)),
            REC_REF => parsed.refs.push((vpn, cur.u64()?)),
            kind => return Err(format!("unknown record kind {kind}")),
        }
    }
    cur.finish()?;
    Ok(parsed)
}

/// Restore a checkpoint image into a **new world** of `store`. The target
/// store must have the same page size as the image, and a non-zero base
/// world must be alive in `store`: the new world is a COW fork of it (an
/// empty world for base 0) with the records applied. No world exists
/// until the whole image has parsed, and a failure after that — a *ref*
/// record that no verified local frame satisfies, a store error — drops
/// the half-built world, so nothing leaks and the sender can re-encode
/// without refs.
///
/// Every ref is applied before any inline page. A full inline page seals
/// into the receiver's direct-mapped content index as it is written, and
/// may land in — and so evict — the very slot a later ref of the same
/// image resolves through; the sender probed all its refs against the
/// index as it stood *before* this image, so that is the index they must
/// meet.
pub fn restore(store: &PageStore, image: &[u8]) -> Result<WorldId> {
    let err = |msg: String| PageStoreError::NoSuchFile(format!("checkpoint: {msg}"));
    let Parsed { base, refs, inline } = parse(image, store.page_size()).map_err(err)?;
    let world = if base == 0 {
        store.create_world()
    } else {
        store
            .fork_world(WorldId(base))
            .map_err(|_| err(format!("delta base world {base} not in target store")))?
    };
    let apply = || -> Result<()> {
        for (vpn, hash) in refs {
            if !store.map_content(world, vpn, hash)? {
                return Err(err("content ref not present on receiver".into()));
            }
        }
        for (vpn, page) in inline {
            store.write(world, vpn, 0, page)?;
        }
        Ok(())
    };
    match apply() {
        Ok(()) => Ok(world),
        Err(e) => {
            let _ = store.drop_world(world);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_same_store() {
        let store = PageStore::new(64);
        let w = store.create_world();
        store.write(w, 3, 10, b"alpha").unwrap();
        store.write(w, 9, 0, b"beta").unwrap();
        let image = checkpoint(&store, w).unwrap();
        assert_eq!(image.len(), 32 + 2 * (9 + 64), "sized exactly");
        assert_eq!(image.capacity(), image.len(), "and reserved once");

        let r = restore(&store, &image).unwrap();
        assert_eq!(store.read_vec(r, 3, 10, 5).unwrap(), b"alpha");
        assert_eq!(store.read_vec(r, 9, 0, 4).unwrap(), b"beta");
        assert_eq!(
            store.read_vec(r, 0, 0, 1).unwrap(),
            vec![0],
            "unmapped stays zero"
        );
        assert_eq!(store.mapped_pages(r).unwrap(), 2);
    }

    #[test]
    fn round_trip_across_stores_simulates_remote_fork() {
        let here = PageStore::new(128);
        let there = PageStore::new(128); // "another node"
        let w = here.create_world();
        for vpn in 0..10 {
            here.write(w, vpn, 0, &[vpn as u8 + 1]).unwrap();
        }
        let image = checkpoint(&here, w).unwrap();
        let remote = restore(&there, &image).unwrap();
        for vpn in 0..10 {
            assert_eq!(
                there.read_vec(remote, vpn, 0, 1).unwrap(),
                vec![vpn as u8 + 1]
            );
        }
        // The two worlds are fully independent.
        there.write(remote, 0, 0, &[99]).unwrap();
        assert_eq!(here.read_vec(w, 0, 0, 1).unwrap(), vec![1]);
    }

    #[test]
    fn empty_world_checkpoints_to_header_only() {
        let store = PageStore::new(64);
        let w = store.create_world();
        let image = checkpoint(&store, w).unwrap();
        assert_eq!(image.len(), 32);
        let r = restore(&store, &image).unwrap();
        assert_eq!(store.mapped_pages(r).unwrap(), 0);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let store = PageStore::new(64);
        assert!(restore(&store, b"BOGUS").is_err());
        assert!(
            restore(&store, b"MWCK\x02\x00\x00\x00").is_err(),
            "short header"
        );
        // Valid header, wrong page size.
        let other = PageStore::new(128);
        let w = other.create_world();
        other.write(w, 0, 0, &[1]).unwrap();
        let image = checkpoint(&other, w).unwrap();
        assert!(restore(&store, &image).is_err(), "page size mismatch");
        // Truncated payload.
        let w2 = store.create_world();
        store.write(w2, 0, 0, &[1]).unwrap();
        let mut image = checkpoint(&store, w2).unwrap();
        image.truncate(image.len() - 1);
        assert!(restore(&store, &image).is_err());
    }

    #[test]
    fn hostile_page_count_is_rejected_before_any_world_exists() {
        // 2^61 records of 8 + 64 bytes is 9 * 2^64 bytes: wrapping
        // arithmetic would call that 0 and pass the bare header for whole.
        // The count only bounds the walk, so it is never multiplied; and
        // the claim fails before the base is forked, not after.
        let store = PageStore::new(64);
        let base = store.create_world();
        for (count, base_field) in [
            (1u64 << 61, 0),
            (1u64 << 61, base.raw()),
            (u64::MAX, base.raw()),
            (1, base.raw()),
        ] {
            let mut image = Vec::new();
            image.extend_from_slice(MAGIC);
            image.extend_from_slice(&VERSION.to_le_bytes());
            image.extend_from_slice(&64u64.to_le_bytes());
            image.extend_from_slice(&count.to_le_bytes());
            image.extend_from_slice(&base_field.to_le_bytes());
            let forks = store.stats().forks;
            assert!(restore(&store, &image).is_err(), "count {count}");
            assert_eq!(store.world_count(), 1, "count {count} left a world");
            assert_eq!(store.stats().forks, forks, "count {count} forked the base");
        }
    }

    #[test]
    fn delta_round_trip_same_store() {
        let store = PageStore::new(64);
        let base = store.create_world();
        for vpn in 0..10 {
            store.write(base, vpn, 0, &[vpn as u8 + 1]).unwrap();
        }
        let child = store.fork_world(base).unwrap();
        store.write(child, 3, 0, b"edit").unwrap();
        store.write(child, 42, 0, b"new page").unwrap();
        let delta = checkpoint_delta(&store, child, base, base.raw()).unwrap();
        // 2 records, not 11: the untouched base pages stay home.
        assert_eq!(delta.len(), 32 + 2 * (9 + 64));

        let r = restore(&store, &delta).unwrap();
        for vpn in 0..10 {
            assert_eq!(
                store.read_vec(r, vpn, 0, 4).unwrap(),
                store.read_vec(child, vpn, 0, 4).unwrap(),
                "vpn {vpn}"
            );
        }
        assert_eq!(store.read_vec(r, 42, 0, 8).unwrap(), b"new page");
    }

    #[test]
    fn delta_of_identical_sibling_is_header_only() {
        let store = PageStore::new(64);
        let base = store.create_world();
        store.write(base, 0, 0, b"same").unwrap();
        let twin = store.fork_world(base).unwrap();
        // A write that restores the original bytes is not a delta.
        store.write(twin, 0, 0, b"same").unwrap();
        let delta = checkpoint_delta(&store, twin, base, base.raw()).unwrap();
        assert_eq!(delta.len(), 32, "content-equal sibling ships nothing");
    }

    #[test]
    fn delta_records_pages_the_child_lacks() {
        // A page mapped in the base but never touched by the child is
        // shared by the fork, so it only appears in the delta when the
        // *contents* differ — here the child zeroes it explicitly.
        let store = PageStore::new(64);
        let base = store.create_world();
        store.write(base, 5, 0, &[9; 64]).unwrap();
        let child = store.fork_world(base).unwrap();
        store.write(child, 5, 0, &[0; 64]).unwrap();
        let delta = checkpoint_delta(&store, child, base, base.raw()).unwrap();
        let r = restore(&store, &delta).unwrap();
        assert_eq!(store.read_vec(r, 5, 0, 64).unwrap(), vec![0; 64]);
    }

    #[test]
    fn delta_against_missing_base_is_rejected() {
        let here = PageStore::new(64);
        let base = here.create_world();
        let child = here.fork_world(base).unwrap();
        here.write(child, 0, 0, &[1]).unwrap();
        let delta = checkpoint_delta(&here, child, base, base.raw()).unwrap();
        let there = PageStore::new(64); // no such base world over there
        let err = restore(&there, &delta).unwrap_err();
        assert!(format!("{err}").contains("base world"), "{err}");
    }

    #[test]
    fn truncated_delta_is_rejected() {
        let store = PageStore::new(64);
        let base = store.create_world();
        let child = store.fork_world(base).unwrap();
        store.write(child, 0, 0, &[1]).unwrap();
        let mut delta = checkpoint_delta(&store, child, base, base.raw()).unwrap();
        delta.truncate(delta.len() - 1);
        assert!(restore(&store, &delta).is_err());
        // So is one cut inside the header, before the base field.
        assert!(restore(&store, &delta[..24]).is_err());
    }

    #[test]
    fn unknown_version_is_rejected() {
        // Including the numbers the retired fixed-record layouts used.
        let store = PageStore::new(64);
        let w = store.create_world();
        let good = checkpoint(&store, w).unwrap();
        for version in [0u32, 1, 2, 4] {
            let mut img = good.clone();
            img[4..8].copy_from_slice(&version.to_le_bytes());
            let err = restore(&store, &img).unwrap_err();
            assert!(format!("{err}").contains("unsupported version"), "{err}");
        }
        assert_eq!(store.world_count(), 1);
    }

    #[test]
    fn content_delta_round_trip_with_warm_index() {
        // Receiver already holds the child's new page contents (under a
        // different world); the image ships a hash ref, not bytes.
        let here = PageStore::new(64);
        let there = PageStore::new(64);
        there.set_dedupe(true);
        let base = here.create_world();
        for vpn in 0..4 {
            here.write(base, vpn, 0, &[vpn as u8 + 1; 64]).unwrap();
        }
        // Mirror the base on the receiver (PR 5's pinned-base handshake).
        let rbase = restore(&there, &checkpoint(&here, base).unwrap()).unwrap();

        let child = here.fork_world(base).unwrap();
        here.write(child, 2, 0, &[0xEE; 64]).unwrap();
        here.write(child, 9, 0, &[0xDD; 64]).unwrap();
        // Warm the receiver's index with one of the two new pages.
        let warm = there.create_world();
        there.write(warm, 0, 0, &[0xEE; 64]).unwrap();

        let manifest = delta_manifest(&here, child, base).unwrap();
        assert_eq!(manifest.len(), 2);
        let present: Vec<bool> = manifest
            .iter()
            .map(|&(_, h)| there.content_probe(h))
            .collect();
        assert_eq!(present.iter().filter(|&&p| p).count(), 1);
        let image = checkpoint_content(&here, child, rbase.raw(), &manifest, &present).unwrap();
        // One ref record (17 B) + one inline record (8 + 1 + 64 B).
        assert_eq!(image.len(), 32 + 17 + 73);

        let r = restore(&there, &image).unwrap();
        assert_eq!(there.read_vec(r, 2, 0, 64).unwrap(), vec![0xEE; 64]);
        assert_eq!(there.read_vec(r, 9, 0, 64).unwrap(), vec![0xDD; 64]);
        for vpn in 0..2 {
            assert_eq!(
                there.read_vec(r, vpn, 0, 64).unwrap(),
                vec![vpn as u8 + 1; 64],
                "inherited base page {vpn}"
            );
        }
        assert!(there.stats().dedupe_hits >= 1, "ref record re-shared");
    }

    #[test]
    fn content_delta_all_inline_when_index_cold() {
        let here = PageStore::new(64);
        let there = PageStore::new(64); // dedupe off: every probe misses
        let base = here.create_world();
        here.write(base, 0, 0, b"base").unwrap();
        let rbase = restore(&there, &checkpoint(&here, base).unwrap()).unwrap();
        let child = here.fork_world(base).unwrap();
        here.write(child, 7, 0, b"fresh").unwrap();

        let manifest = delta_manifest(&here, child, base).unwrap();
        let present: Vec<bool> = manifest
            .iter()
            .map(|&(_, h)| there.content_probe(h))
            .collect();
        assert!(present.iter().all(|&p| !p));
        let image = checkpoint_content(&here, child, rbase.raw(), &manifest, &present).unwrap();
        let r = restore(&there, &image).unwrap();
        assert_eq!(there.read_vec(r, 7, 0, 5).unwrap(), b"fresh");
    }

    #[test]
    fn content_ref_missing_on_receiver_fails_without_leaking_a_world() {
        let here = PageStore::new(64);
        let there = PageStore::new(64);
        let base = here.create_world();
        here.write(base, 0, 0, b"base").unwrap();
        let rbase = restore(&there, &checkpoint(&here, base).unwrap()).unwrap();
        let child = here.fork_world(base).unwrap();
        here.write(child, 3, 0, b"only here").unwrap();

        let manifest = delta_manifest(&here, child, base).unwrap();
        // Lie: claim the receiver has the page so a ref record is emitted.
        let present = vec![true; manifest.len()];
        let image = checkpoint_content(&here, child, rbase.raw(), &manifest, &present).unwrap();
        let before = there.world_count();
        let err = restore(&there, &image).unwrap_err();
        assert!(format!("{err}").contains("not present"), "{err}");
        assert_eq!(there.world_count(), before, "half-built world torn down");
    }

    #[test]
    fn inline_page_cannot_evict_a_ref_of_its_own_image() {
        use crate::content::ContentIndex;
        let here = PageStore::new(64);
        let there = PageStore::new(64);
        there.set_dedupe(true);
        let base = here.create_world();
        here.write(base, 0, 0, b"base").unwrap();
        let rbase = restore(&there, &checkpoint(&here, base).unwrap()).unwrap();
        // The receiver already holds the page the image will ref...
        let held = [0xDDu8; 64];
        let warm = there.create_world();
        there.write(warm, 0, 0, &held).unwrap();
        // ...and the page the image carries inline, at a lower vpn, is
        // picked to seal into the very index slot that ref resolves through.
        let slot = ContentIndex::slot_of(page_hash(&held));
        let mut evictor = [0xEEu8; 64];
        for n in 0u64.. {
            evictor[..8].copy_from_slice(&n.to_le_bytes());
            if ContentIndex::slot_of(page_hash(&evictor)) == slot {
                break;
            }
        }
        let child = here.fork_world(base).unwrap();
        here.write(child, 2, 0, &evictor).unwrap();
        here.write(child, 9, 0, &held).unwrap();

        let manifest = delta_manifest(&here, child, base).unwrap();
        let present: Vec<bool> = manifest
            .iter()
            .map(|&(_, h)| there.content_probe(h))
            .collect();
        assert_eq!(
            present,
            vec![false, true],
            "inline record first, then the ref"
        );
        let image = checkpoint_content(&here, child, rbase.raw(), &manifest, &present).unwrap();
        let r = restore(&there, &image).expect("refs resolve before inline pages seal");
        assert_eq!(there.read_vec(r, 2, 0, 64).unwrap(), evictor);
        assert_eq!(there.read_vec(r, 9, 0, 64).unwrap(), held);
        assert!(
            !there.content_probe(page_hash(&held)),
            "the inline page did take the ref's index slot"
        );
        there.verify_refcounts().unwrap();
    }

    #[test]
    fn truncated_content_delta_is_rejected() {
        let here = PageStore::new(64);
        let there = PageStore::new(64);
        let base = here.create_world();
        let rbase = restore(&there, &checkpoint(&here, base).unwrap()).unwrap();
        let child = here.fork_world(base).unwrap();
        here.write(child, 0, 0, &[1; 64]).unwrap();
        let manifest = delta_manifest(&here, child, base).unwrap();
        let present = vec![false; manifest.len()];
        let image = checkpoint_content(&here, child, rbase.raw(), &manifest, &present).unwrap();
        let before = there.world_count();
        for cut in [image.len() - 1, 33, 40] {
            assert!(restore(&there, &image[..cut]).is_err(), "cut {cut}");
        }
        // A record kind the decoder does not know is rejected too.
        let mut bad = image.clone();
        bad[32 + 8] = 7;
        assert!(restore(&there, &bad).is_err());
        assert_eq!(there.world_count(), before, "no worlds leaked");
    }

    #[test]
    fn images_written_into_a_kept_buffer_match_fresh_ones() {
        let store = PageStore::new(64);
        let base = store.create_world();
        for vpn in 0..10 {
            store.write(base, vpn, 0, &[vpn as u8 + 1; 64]).unwrap();
        }
        let child = store.fork_world(base).unwrap();
        store.write(child, 4, 0, b"edit").unwrap();
        let manifest = delta_manifest(&store, child, base).unwrap();
        let present = vec![false; manifest.len()];

        let mut kept = Vec::new();
        checkpoint_into(&store, base, &mut kept).unwrap();
        assert_eq!(kept, checkpoint(&store, base).unwrap());
        let grown = kept.capacity();
        // A shorter image after a longer one: exactly its own bytes, in
        // the same allocation.
        checkpoint_content_into(&store, child, base.raw(), &manifest, &present, &mut kept).unwrap();
        let fresh = checkpoint_content(&store, child, base.raw(), &manifest, &present).unwrap();
        assert_eq!(kept, fresh);
        assert_eq!(kept.capacity(), grown, "the kept buffer did not regrow");
        let r = restore(&store, &kept).unwrap();
        assert_eq!(store.read_vec(r, 4, 0, 4).unwrap(), b"edit");
        // And the header-only image a sibling fork ships.
        checkpoint_content_into(&store, child, base.raw(), &[], &[], &mut kept).unwrap();
        assert_eq!(kept.len(), HEADER);
        let twin = restore(&store, &kept).unwrap();
        assert_eq!(store.read_vec(twin, 4, 0, 1).unwrap(), vec![5]);
    }

    #[test]
    fn seventy_kb_process_image_size() {
        // The paper's rfork shipped a 70 KB process; at 4 KiB pages that
        // is 18 pages ≈ 72 KiB + per-page headers.
        let store = PageStore::new(4096);
        let w = store.create_world();
        for vpn in 0..18 {
            store.write(w, vpn, 0, &[0xAB]).unwrap();
        }
        let size = checkpoint(&store, w).unwrap().len();
        assert!(size > 70 * 1024 && size < 80 * 1024, "size {size}");
    }
}
