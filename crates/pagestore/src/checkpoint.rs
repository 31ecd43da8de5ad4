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
//! then per record: vpn u64 | kind u8 = 0 | page_size inline bytes
//! ```
//!
//! Record kind 1 once carried an 8-byte content hash in place of the page,
//! a *ref* to bytes the receiver's content index held. It is retired and
//! never reused: on the delta rfork path a ref could not hit (see
//! EXPERIMENTS.md, *Deltas without a probe*), so every page travels inline
//! and [`restore`] rejects an image holding any other kind.
//!
//! [`restore`] builds a **new world**: a COW fork of `base_world` (which
//! must already live in the target store — for `rfork` that is the replica
//! an earlier image restored), or a fresh empty world when `base_world` is
//! 0 (world ids start at 1), with every record applied on top. The public
//! encoders differ only in which pages they write:
//!
//! * [`checkpoint`] — a **full** image: every mapped page against base 0.
//! * [`checkpoint_delta`] — only the pages whose bytes differ from a
//!   stated base world. Repeated rfork of sibling worlds then ships KBs
//!   instead of the full image.
//! * [`checkpoint_content`] — the pages a [`delta_manifest`] names, the
//!   same image [`checkpoint_delta`] writes for that manifest.
//!
//! [`checkpoint_into`] and [`checkpoint_delta_into`] write the same images
//! into a buffer the caller keeps, so a sender that ships image after
//! image (a cluster's rforks) allocates no image-sized memory once its
//! buffer has grown to the largest one.
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
/// The one record kind: a full inline page. (Kind 1, a content-hash ref,
/// is retired.)
const REC_INLINE: u8 = 0;

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
/// inline record per vpn of `vpns` into it, each page appended straight
/// from `world`'s frame with no zero-fill first. The buffer is grown to
/// the exact image size at most once, so a caller that keeps it across
/// images allocates nothing for images that fit. Serialisation is real
/// work (not simulated), so the announced duration is measured wall time.
fn write_image_into(
    store: &PageStore,
    world: WorldId,
    base_on_target: u64,
    vpns: &[Vpn],
    out: &mut Vec<u8>,
) -> Result<()> {
    let started = Instant::now();
    let page_size = store.page_size();
    out.clear();
    out.reserve_exact(HEADER + vpns.len() * (9 + page_size));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(page_size as u64).to_le_bytes());
    out.extend_from_slice(&(vpns.len() as u64).to_le_bytes());
    out.extend_from_slice(&base_on_target.to_le_bytes());
    for &vpn in vpns {
        out.extend_from_slice(&vpn.to_le_bytes());
        out.push(REC_INLINE);
        store.read_append(world, vpn, 0, page_size, out)?;
    }
    store.obs().emit(|| {
        let parent = store.parent_of(world).ok().flatten().map(WorldId::raw);
        worlds_obs::Event::new(
            worlds_obs::EventKind::Checkpoint {
                pages: vpns.len() as u64,
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
    write_image_into(store, world, 0, &store.mapped_vpns(world)?, out)
}

/// Serialise only the pages of `world` whose **bytes** differ from
/// `base`. `base_on_target` is the world id the image's receiver should
/// fork as the base — for a same-store round trip that is `base.raw()`;
/// for `rfork` it is the id of the replica a previous image restored on
/// the remote store (cluster stores share one id allocator, so the id is
/// unambiguous either way).
///
/// Only dirty pages ship: a write that restored the original bytes
/// ships nothing.
pub fn checkpoint_delta(
    store: &PageStore,
    world: WorldId,
    base: WorldId,
    base_on_target: u64,
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    checkpoint_delta_into(store, world, base, base_on_target, &mut out)?;
    Ok(out)
}

/// [`checkpoint_delta`] into a buffer the caller keeps, as
/// [`checkpoint_into`] does for a full image. With `base == world` no
/// page differs, and the image is the bare header: a fork of
/// `base_on_target` as it stands.
pub fn checkpoint_delta_into(
    store: &PageStore,
    world: WorldId,
    base: WorldId,
    base_on_target: u64,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut vpns = Vec::new();
    dirty_pages(store, world, base, |vpn, _| vpns.push(vpn))?;
    write_image_into(store, world, base_on_target, &vpns, out)
}

/// Every page of `world` whose bytes differ from `base`, paired with the
/// content hash of the `world`-side bytes. Same candidate narrowing as
/// [`checkpoint_delta`] — a write that restored the original bytes
/// produces no entry. [`checkpoint_content`] takes the manifest for its
/// vpns; [`checkpoint_delta`] finds the same pages without hashing.
pub fn delta_manifest(store: &PageStore, world: WorldId, base: WorldId) -> Result<Vec<(Vpn, u64)>> {
    let mut manifest = Vec::new();
    dirty_pages(store, world, base, |vpn, bytes| {
        manifest.push((vpn, page_hash(bytes)));
    })?;
    Ok(manifest)
}

/// Serialise the pages a [`delta_manifest`] names, inline: for a manifest
/// of `world` against `base`, the image [`checkpoint_delta`] writes.
/// `present` must hold one `false` per manifest entry. A `true` once
/// shipped that page as a ref to bytes the receiver held; refs are
/// retired, so no flag may ask for one. `base_on_target` is as in
/// [`checkpoint_delta`].
pub fn checkpoint_content(
    store: &PageStore,
    world: WorldId,
    base_on_target: u64,
    manifest: &[(Vpn, u64)],
    present: &[bool],
) -> Result<Vec<u8>> {
    assert_eq!(
        manifest.len(),
        present.len(),
        "one presence flag per manifest entry"
    );
    assert!(
        !present.contains(&true),
        "ref records are retired: every page ships inline"
    );
    let vpns: Vec<Vpn> = manifest.iter().map(|&(vpn, _)| vpn).collect();
    let mut out = Vec::new();
    write_image_into(store, world, base_on_target, &vpns, &mut out)?;
    Ok(out)
}

/// What an image says, before any of it touches a store.
struct Parsed<'a> {
    base: u64,
    pages: Vec<(Vpn, &'a [u8])>,
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
        pages: Vec::new(),
    };
    for _ in 0..count {
        let vpn = cur.u64()?;
        match cur.u8()? {
            REC_INLINE => parsed.pages.push((vpn, cur.take(page_size)?)),
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
/// until the whole image has parsed — an image holding a record kind
/// other than 0 is rejected before the base is forked — and a store error
/// after that drops the half-built world, so nothing leaks.
pub fn restore(store: &PageStore, image: &[u8]) -> Result<WorldId> {
    let err = |msg: String| PageStoreError::NoSuchFile(format!("checkpoint: {msg}"));
    let Parsed { base, pages } = parse(image, store.page_size()).map_err(err)?;
    let world = if base == 0 {
        store.create_world()
    } else {
        store
            .fork_world(WorldId(base))
            .map_err(|_| err(format!("delta base world {base} not in target store")))?
    };
    let apply = || -> Result<()> {
        for (vpn, page) in pages {
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
    fn content_image_is_the_delta_its_manifest_names() {
        let here = PageStore::new(64);
        let there = PageStore::new(64);
        let base = here.create_world();
        here.write(base, 0, 0, b"base").unwrap();
        let rbase = restore(&there, &checkpoint(&here, base).unwrap()).unwrap();
        let child = here.fork_world(base).unwrap();
        here.write(child, 7, 0, b"fresh").unwrap();

        let manifest = delta_manifest(&here, child, base).unwrap();
        let present = vec![false; manifest.len()];
        let image = checkpoint_content(&here, child, rbase.raw(), &manifest, &present).unwrap();
        assert_eq!(
            image,
            checkpoint_delta(&here, child, base, rbase.raw()).unwrap()
        );
        let r = restore(&there, &image).unwrap();
        assert_eq!(there.read_vec(r, 7, 0, 5).unwrap(), b"fresh");
        assert_eq!(there.read_vec(r, 0, 0, 4).unwrap(), b"base");
    }

    #[test]
    #[should_panic(expected = "ref records are retired")]
    fn a_content_image_cannot_ask_for_a_ref() {
        let store = PageStore::new(64);
        let base = store.create_world();
        let child = store.fork_world(base).unwrap();
        store.write(child, 3, 0, b"only here").unwrap();
        let manifest = delta_manifest(&store, child, base).unwrap();
        let _ = checkpoint_content(&store, child, base.raw(), &manifest, &[true]);
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

        let mut kept = Vec::new();
        checkpoint_into(&store, base, &mut kept).unwrap();
        assert_eq!(kept, checkpoint(&store, base).unwrap());
        let grown = kept.capacity();
        // A shorter image after a longer one: exactly its own bytes, in
        // the same allocation.
        checkpoint_delta_into(&store, child, base, base.raw(), &mut kept).unwrap();
        let fresh = checkpoint_delta(&store, child, base, base.raw()).unwrap();
        assert_eq!(kept, fresh);
        assert_eq!(kept.capacity(), grown, "the kept buffer did not regrow");
        let r = restore(&store, &kept).unwrap();
        assert_eq!(store.read_vec(r, 4, 0, 4).unwrap(), b"edit");
        // And the header-only image a sibling fork ships: a delta of a
        // world against itself.
        checkpoint_delta_into(&store, child, child, base.raw(), &mut kept).unwrap();
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
