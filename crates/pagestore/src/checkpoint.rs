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
//! read by one receiver:
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
//! and a restore rejects an image holding any other kind.
//!
//! An image is never built to be sent. The sender holds an [`ImageDesc`]:
//! the header, and per page its 9-byte record header and a snapshot of the
//! frame holding its bytes, all taken under one shard read lock. Nothing
//! is copied: [`ImageDesc::pieces`] hands out header, record headers and
//! page bytes in wire order, so a transport gathers them from the origin's
//! frames straight into a socket, and [`ImageDesc::to_vec`], the one
//! encoder, appends the same pieces to a `Vec`. The descriptions differ
//! only in which pages they hold:
//!
//! * [`describe`] — a **full** image: every mapped page against base 0.
//! * [`describe_delta`] — only the pages whose bytes differ from a stated
//!   base world. Repeated rfork of sibling worlds then ships KBs instead
//!   of the full image. A world against itself is the bare header.
//!
//! [`checkpoint`], [`checkpoint_delta`] and [`checkpoint_content`] (the
//! pages a [`delta_manifest`] names) are those images as bytes.
//!
//! A restore builds a **new world**: a COW fork of `base_world` (which
//! must already live in the target store — for `rfork` that is the replica
//! an earlier image restored), or a fresh empty world when `base_world` is
//! 0 (world ids start at 1), with every record installed on top. One
//! receiver, [`ReceivedImage`], restores every image: one header check,
//! one record check, one batch of page buffers from the recycle pool, and
//! one install that makes each buffer a frame, by move. A transport feeds
//! it from a socket, each record read straight into its buffers; [`restore`]
//! feeds it from a slice and [`ImageDesc::copy_into`] from a description,
//! each page copied into its buffer, so two stores never share a frame.
//! Every receiver refuses a malformed image with the same error, before it
//! takes a buffer or forks the base.
//!
//! Images are ephemeral wire payloads between nodes of one build; nothing
//! stores one, so there is no older version to stay readable.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::content::page_hash;
use crate::cursor::Cursor;
use crate::error::{PageStoreError, Result};
use crate::page::{PageData, Vpn};
use crate::store::{PageStore, WorldId};

const MAGIC: &[u8] = b"MWCK";
/// The record-stream format above (1 and 2 numbered fixed-record layouts
/// no build writes any more).
const VERSION: u32 = 3;
/// Header bytes: magic + version + page_size + record_count + base_world.
pub const IMAGE_HEADER: usize = 32;
/// Record header bytes: vpn + kind.
const RECORD_HEADER: usize = 9;
/// The one record kind: a full inline page. (Kind 1, a content-hash ref,
/// is retired.)
const REC_INLINE: u8 = 0;

/// A restore's error: every malformed image reads as one of these.
fn image_err(msg: String) -> PageStoreError {
    PageStoreError::NoSuchFile(format!("checkpoint: {msg}"))
}

/// Hand `each` every page of `world` whose **bytes** differ from `base`,
/// ascending, with the `world`-side bytes. The candidate set is the COW
/// map diff (pages written since the fork), narrowed by comparing the two
/// worlds' page snapshots, so a write that restored the original bytes is
/// skipped.
fn dirty_pages(
    store: &PageStore,
    world: WorldId,
    base: WorldId,
    mut each: impl FnMut(Vpn, &[u8]),
) -> Result<()> {
    let vpns = store.diff_worlds(world, base)?;
    let ours = store.snapshots(world, &vpns)?;
    let theirs = store.snapshots(base, &vpns)?;
    for ((&vpn, ours), theirs) in vpns.iter().zip(&ours).zip(&theirs) {
        // A page a world does not map reads as zeroes.
        match (ours.as_deref(), theirs.as_deref()) {
            (Some(a), Some(b)) if a.bytes() == b.bytes() => {}
            (Some(page), None) | (None, Some(page)) if page.is_zero() => {}
            (None, None) => {}
            (Some(ours), _) => each(vpn, ours.bytes()),
            (None, Some(_)) => each(vpn, &vec![0; store.page_size()]),
        }
    }
    Ok(())
}

/// An image described rather than written: its header, and per page the
/// record header and a snapshot of the page (see the module docs). The
/// snapshots keep the described bytes fixed while the description lives:
/// a write to one of those frames copies it first.
#[derive(Debug, Clone)]
pub struct ImageDesc {
    header: [u8; IMAGE_HEADER],
    page_size: usize,
    records: Vec<([u8; RECORD_HEADER], Arc<PageData>)>,
}

impl ImageDesc {
    /// Describe `pages` of `world` against `base_on_target`. Describing
    /// is the checkpoint's real work (not simulated), so the announced
    /// duration is measured wall time since `started`.
    fn new(
        store: &PageStore,
        world: WorldId,
        base_on_target: u64,
        pages: impl ExactSizeIterator<Item = (Vpn, Arc<PageData>)>,
        started: Instant,
    ) -> ImageDesc {
        let page_size = store.page_size();
        let mut header = [0u8; IMAGE_HEADER];
        header[..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&(page_size as u64).to_le_bytes());
        header[16..24].copy_from_slice(&(pages.len() as u64).to_le_bytes());
        header[24..].copy_from_slice(&base_on_target.to_le_bytes());
        let records = pages
            .map(|(vpn, page)| {
                let mut head = [REC_INLINE; RECORD_HEADER];
                head[..8].copy_from_slice(&vpn.to_le_bytes());
                (head, page)
            })
            .collect();
        let image = ImageDesc {
            header,
            page_size,
            records,
        };
        store.obs().emit(|| {
            let parent = store.parent_of(world).ok().flatten().map(WorldId::raw);
            worlds_obs::Event::new(
                worlds_obs::EventKind::Checkpoint {
                    pages: image.pages() as u64,
                    bytes: image.byte_len() as u64,
                    duration_ns: started.elapsed().as_nanos() as u64,
                },
                world.raw(),
                parent,
                0,
            )
        });
        image
    }

    /// Bytes of the image this describes.
    pub fn byte_len(&self) -> usize {
        IMAGE_HEADER + self.records.len() * (RECORD_HEADER + self.page_size)
    }

    /// Pages (records) it holds.
    pub fn pages(&self) -> usize {
        self.records.len()
    }

    /// The image's bytes as the slices they lie in, in order: the header,
    /// then each record's header and page.
    pub fn pieces(&self) -> impl Iterator<Item = &[u8]> + '_ {
        std::iter::once(&self.header[..]).chain(
            self.records
                .iter()
                .flat_map(|(head, page)| [&head[..], page.bytes()]),
        )
    }

    /// The image's bytes: the one encoder, sized exactly at the start.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        for piece in self.pieces() {
            out.extend_from_slice(piece);
        }
        out
    }

    /// Restore the described image into `store` as [`restore`] restores
    /// its bytes, each page copied into a buffer of `store`'s one batch:
    /// what a receiver that shares no memory with the sender gets.
    pub fn copy_into(&self, store: &PageStore) -> Result<WorldId> {
        let records = self.records.iter().map(|(h, p)| (&h[..], p.bytes()));
        receive(store, &self.header, self.byte_len(), records)
    }
}

/// Describe `vpns` of `world`, snapshotted under one shard read lock; a
/// vpn `world` does not map reads as zeroes.
fn describe_vpns(
    store: &PageStore,
    world: WorldId,
    base_on_target: u64,
    vpns: &[Vpn],
    started: Instant,
) -> Result<ImageDesc> {
    let snapshots = store.snapshots(world, vpns)?;
    let mut zero = None;
    let pages = vpns.iter().zip(snapshots).map(|(&vpn, page)| {
        let page = page.unwrap_or_else(|| {
            zero.get_or_insert_with(|| Arc::new(PageData::zeroed(store.page_size())))
                .clone()
        });
        (vpn, page)
    });
    Ok(ImageDesc::new(store, world, base_on_target, pages, started))
}

/// Describe every mapped page of `world` as a full image (base 0: the
/// receiver starts from an empty world).
pub fn describe(store: &PageStore, world: WorldId) -> Result<ImageDesc> {
    let started = Instant::now();
    let pages = store.mapped_snapshots(world)?;
    Ok(ImageDesc::new(store, world, 0, pages.into_iter(), started))
}

/// Describe only the pages of `world` whose **bytes** differ from
/// `base`. `base_on_target` is the world id the image's receiver should
/// fork as the base — for a same-store round trip that is `base.raw()`;
/// for `rfork` it is the id of the replica a previous image restored on
/// the remote store (cluster stores share one id allocator, so the id is
/// unambiguous either way).
///
/// Only dirty pages ship: a write that restored the original bytes
/// ships nothing. With `base == world` no page differs, and the image is
/// the bare header: a fork of `base_on_target` as it stands.
pub fn describe_delta(
    store: &PageStore,
    world: WorldId,
    base: WorldId,
    base_on_target: u64,
) -> Result<ImageDesc> {
    let started = Instant::now();
    let mut vpns = Vec::new();
    dirty_pages(store, world, base, |vpn, _| vpns.push(vpn))?;
    describe_vpns(store, world, base_on_target, &vpns, started)
}

/// Serialise every mapped page of `world` into a full image: [`describe`]
/// as bytes.
pub fn checkpoint(store: &PageStore, world: WorldId) -> Result<Vec<u8>> {
    Ok(describe(store, world)?.to_vec())
}

/// Serialise only the pages of `world` whose bytes differ from `base`:
/// [`describe_delta`] as bytes.
pub fn checkpoint_delta(
    store: &PageStore,
    world: WorldId,
    base: WorldId,
    base_on_target: u64,
) -> Result<Vec<u8>> {
    Ok(describe_delta(store, world, base, base_on_target)?.to_vec())
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
    Ok(describe_vpns(store, world, base_on_target, &vpns, Instant::now())?.to_vec())
}

/// The one record check: a record header's vpn, if its kind is the
/// inline page.
fn parse_record(head: &[u8; RECORD_HEADER]) -> std::result::Result<Vpn, String> {
    match head[8] {
        REC_INLINE => Ok(Vpn::from_le_bytes(head[..8].try_into().expect("8 bytes"))),
        kind => Err(format!("unknown record kind {kind}")),
    }
}

/// Receive an image of `len` bytes held in memory as a wire reader
/// receives one: the same header and record checks, then one batch of
/// page buffers, each page copied into its own. `records` are the image's
/// `(record header, page)` pairs in order; a short header ends them.
fn receive<'a, R>(store: &PageStore, header: &[u8], len: usize, records: R) -> Result<WorldId>
where
    R: Iterator<Item = (&'a [u8], &'a [u8])> + Clone,
{
    let mut image = ReceivedImage::open(store, header, len).map_err(image_err)?;
    image.heads = records
        .clone()
        .map_while(|(head, _)| head.try_into().ok())
        .take(image.count)
        .collect();
    image.install(records.map(|(_, page)| page))
}

/// Restore a checkpoint image into a **new world** of `store`: a COW fork
/// of its base world, which must be alive in `store` (an empty world for
/// base 0), with the records installed. The store must have the image's
/// page size. The bytes are received as [`ReceivedImage`] receives them
/// off a wire, so a malformed image gets the same error, before a buffer
/// is taken or the base is forked; a store error after that drops the
/// half-built world, so nothing leaks.
pub fn restore(store: &PageStore, image: &[u8]) -> Result<WorldId> {
    let records = image
        .get(IMAGE_HEADER..)
        .unwrap_or_default()
        .chunks(RECORD_HEADER + store.page_size())
        .map(|rec| rec.split_at(rec.len().min(RECORD_HEADER)));
    receive(store, image, image.len(), records)
}

/// An image being received into page buffers of the store that will
/// restore it: each record header into a small array, each page into the
/// buffer that becomes its frame — off a wire by a transport, or copied
/// from memory by [`restore`] and [`ImageDesc::copy_into`]. Buffers come
/// from the store's recycle pool ([`ReceivedImage::reserve`]), and any the
/// image still holds when dropped — a truncated read, a bad checksum, a
/// rejected record — go back to it.
#[derive(Debug)]
pub struct ReceivedImage {
    store: PageStore,
    count: usize,
    base: u64,
    /// Payload bytes, header included.
    len: usize,
    heads: Vec<[u8; RECORD_HEADER]>,
    pages: Vec<PageData>,
}

impl ReceivedImage {
    /// Start reading the image whose first [`IMAGE_HEADER`] bytes are
    /// `header`, in a payload of `len` bytes, into `store` — if those
    /// bytes name this build's format and `store`'s page size, and a
    /// record count whose records exactly fill the payload. Otherwise
    /// `None`: read such a payload as bytes, and [`restore`] refuses it
    /// with the error every receiver gives it.
    pub fn begin(store: &PageStore, header: &[u8; IMAGE_HEADER], len: usize) -> Option<Self> {
        Self::open(store, header, len).ok().filter(Self::fills)
    }

    /// The one header check, on the bytes an image of `len` bytes starts
    /// with (fewer than [`IMAGE_HEADER`] read as truncated).
    fn open(store: &PageStore, header: &[u8], len: usize) -> std::result::Result<Self, String> {
        let mut cur = Cursor::new(header);
        if cur.take(4).ok() != Some(MAGIC) {
            return Err("bad magic".into());
        }
        if cur.u32()? != VERSION {
            return Err("unsupported version".into());
        }
        if cur.u64()? != store.page_size() as u64 {
            return Err("page size mismatch".into());
        }
        let (count, base) = (cur.u64()?, cur.u64()?);
        Ok(ReceivedImage {
            store: store.clone(),
            count: usize::try_from(count).unwrap_or(usize::MAX),
            base,
            len,
            heads: Vec::new(),
            pages: Vec::new(),
        })
    }

    /// Whether the claimed records fill the image exactly; no claim wraps.
    fn fills(&self) -> bool {
        self.count
            .checked_mul(self.record_len())
            .and_then(|bytes| bytes.checked_add(IMAGE_HEADER))
            == Some(self.len)
    }

    /// Bytes per record: its header and one page.
    pub fn record_len(&self) -> usize {
        RECORD_HEADER + self.store.page_size()
    }

    /// Records the image holds.
    pub fn records(&self) -> usize {
        self.count
    }

    /// Records that have buffers to be read into.
    pub fn reserved(&self) -> usize {
        self.pages.len()
    }

    /// Give records `..upto` (capped at the count) buffers to be read
    /// into, taking page buffers from the store's recycle pool first.
    pub fn reserve(&mut self, upto: usize) {
        let upto = upto.min(self.count);
        if upto > self.pages.len() {
            self.heads.resize(upto, [0; RECORD_HEADER]);
            self.store
                .page_buffers(upto - self.pages.len(), &mut self.pages);
        }
    }

    /// The reserved records of `range`, each as its two buffers — record
    /// header, then page — for a reader to fill in order.
    pub fn records_mut(&mut self, range: Range<usize>) -> impl Iterator<Item = [&mut [u8]; 2]> {
        self.heads[range.clone()]
            .iter_mut()
            .zip(&mut self.pages[range])
            .map(|(head, page)| [&mut head[..], page.bytes_mut()])
    }

    /// The reserved records of `range`, as [`ReceivedImage::records_mut`]
    /// hands them out.
    pub fn records_ref(&self, range: Range<usize>) -> impl Iterator<Item = [&[u8]; 2]> {
        self.heads[range.clone()]
            .iter()
            .zip(&self.pages[range])
            .map(|(head, page)| [&head[..], page.bytes()])
    }

    /// Restore the image into a **new world** of its store, as [`restore`]
    /// would restore the same bytes: every record header is checked
    /// before the base is forked, and the page buffers become the new
    /// world's frames. Every record must have been read.
    pub fn restore(self) -> Result<WorldId> {
        assert_eq!(self.pages.len(), self.count, "restore of a part-read image");
        self.install(std::iter::empty())
    }

    /// The one install: the record headers in order, then whether the
    /// records fill the image, are checked before the base is forked or a
    /// buffer taken. Each buffer becomes its page's frame by move
    /// (`PageStore::write_owned`); a store error drops the half-built
    /// world. `copies` are the pages of records no reader has read into a
    /// buffer: the pool's buffers for them come in one batch, the rest are
    /// made from the bytes in one pass (no zero fill), and each page is
    /// copied just before its install, while its bytes are in cache.
    fn install<'a>(mut self, mut copies: impl Iterator<Item = &'a [u8]>) -> Result<WorldId> {
        let vpns: std::result::Result<Vec<_>, _> = self.heads.iter().map(parse_record).collect();
        let vpns = vpns.map_err(image_err)?;
        if !self.fills() {
            let msg = format!("{} records do not fill {} bytes", self.count, self.len);
            return Err(image_err(msg));
        }
        let world = match self.base {
            0 => self.store.create_world(),
            base => self
                .store
                .fork_world(WorldId(base))
                .map_err(|_| image_err(format!("delta base world {base} not in target store")))?,
        };
        let mut buffers = std::mem::take(&mut self.pages);
        let unread = self.count - buffers.len();
        if unread > 0 {
            self.store.pooled_buffers(unread, &mut buffers);
        }
        let mut buffers = buffers.into_iter();
        for vpn in vpns {
            let page = match (buffers.next(), copies.next()) {
                (Some(page), None) => page,
                (Some(mut page), Some(bytes)) => {
                    page.bytes_mut().copy_from_slice(bytes);
                    page
                }
                (None, Some(bytes)) => PageData::copy_of(bytes),
                (None, None) => unreachable!("a record without a page"),
            };
            if let Err(e) = self.store.write_owned(world, vpn, page) {
                let _ = self.store.drop_world(world);
                return Err(e);
            }
        }
        Ok(world)
    }
}

impl Drop for ReceivedImage {
    fn drop(&mut self) {
        if !self.pages.is_empty() {
            self.store.recycle_pages(std::mem::take(&mut self.pages));
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

    /// Read `image` the way a wire receiver does: header, then each
    /// record straight into its buffers.
    fn receive(store: &PageStore, image: &[u8]) -> Option<ReceivedImage> {
        let header = image.get(..IMAGE_HEADER)?.try_into().unwrap();
        let mut received = ReceivedImage::begin(store, header, image.len())?;
        let n = received.records();
        received.reserve(n);
        let mut rest = &image[IMAGE_HEADER..];
        for buf in received.records_mut(0..n).flatten() {
            let (now, later) = rest.split_at(buf.len());
            buf.copy_from_slice(now);
            rest = later;
        }
        Some(received)
    }

    #[test]
    fn a_description_is_the_image_and_every_way_in_restores_it_alike() {
        let here = PageStore::new(64);
        let base = here.create_world();
        for vpn in 0..10 {
            here.write(base, vpn, 0, &[vpn as u8 + 1; 64]).unwrap();
        }
        let child = here.fork_world(base).unwrap();
        here.write(child, 4, 0, b"edit").unwrap();

        let full = describe(&here, base).unwrap();
        let bytes = full.to_vec();
        assert_eq!(bytes, checkpoint(&here, base).unwrap());
        assert_eq!(full.byte_len(), bytes.len());
        assert_eq!(full.pieces().map(<[u8]>::len).sum::<usize>(), bytes.len());
        assert_eq!(full.pages(), 10);
        let delta = describe_delta(&here, child, base, base.raw()).unwrap();
        assert_eq!(
            delta.to_vec(),
            checkpoint_delta(&here, child, base, base.raw()).unwrap()
        );
        assert_eq!(delta.pages(), 1);
        // The header-only image a sibling fork ships: a world against itself.
        assert_eq!(
            describe_delta(&here, child, child, 7).unwrap().byte_len(),
            IMAGE_HEADER
        );

        // Bytes, a copied description and a received image build the same
        // world in another store, and that store's frames are its own.
        let there = PageStore::new(64);
        let worlds = [
            restore(&there, &bytes).unwrap(),
            full.copy_into(&there).unwrap(),
            receive(&there, &bytes).unwrap().restore().unwrap(),
        ];
        for world in worlds {
            for vpn in 0..10 {
                assert_eq!(
                    there.read_vec(world, vpn, 0, 64).unwrap(),
                    here.read_vec(base, vpn, 0, 64).unwrap()
                );
            }
        }
        assert_eq!(there.live_frames(), 30, "no frame is shared across stores");
        there.verify_refcounts().unwrap();
        // Every record of a restore counts as the write it is.
        assert_eq!(there.stats().writes, 30);
        assert_eq!(there.stats().zero_fills, 30);
    }

    #[test]
    fn a_received_image_installs_its_buffers_and_returns_unused_ones() {
        let here = PageStore::new(64);
        let w = here.create_world();
        for vpn in 0..4 {
            here.write(w, vpn, 0, &[vpn as u8 + 9; 64]).unwrap();
        }
        let image = checkpoint(&here, w).unwrap();
        let there = PageStore::new(64);
        // Four freed frames leave four buffers in the pool.
        let scratch = restore(&there, &image).unwrap();
        there.drop_world(scratch).unwrap();
        let recycled = there.stats().frames_recycled;

        // A record kind other than 0 is refused with `restore`'s error,
        // and the image's buffers go back to the pool: the next image
        // takes the same four.
        let mut bad = image.clone();
        bad[IMAGE_HEADER + 2 * (RECORD_HEADER + 64) + 8] = 1;
        let received = receive(&there, &bad).unwrap();
        let err = received.restore().unwrap_err();
        assert_eq!(err, restore(&there, &bad).unwrap_err());
        assert_eq!(
            there.world_count(),
            0,
            "no world before every record checks"
        );
        let world = receive(&there, &image).unwrap().restore().unwrap();
        assert_eq!(there.stats().frames_recycled - recycled, 8);
        assert_eq!(there.read_vec(world, 3, 0, 64).unwrap(), vec![12; 64]);
        // An image read only in part hands its buffers back too.
        let mut part = ReceivedImage::begin(
            &there,
            image[..IMAGE_HEADER].try_into().unwrap(),
            image.len(),
        )
        .unwrap();
        part.reserve(2);
        assert_eq!(part.reserved(), 2);
        drop(part);
        there.verify_refcounts().unwrap();
        assert_eq!(there.live_frames(), 4);
    }

    #[test]
    fn only_images_of_exact_inline_records_are_received_into_buffers() {
        let here = PageStore::new(64);
        let w = here.create_world();
        here.write(w, 0, 0, &[1]).unwrap();
        let image = checkpoint(&here, w).unwrap();
        let header: &[u8; IMAGE_HEADER] = image[..IMAGE_HEADER].try_into().unwrap();
        let there = PageStore::new(64);
        assert!(ReceivedImage::begin(&there, header, image.len()).is_some());
        assert!(ReceivedImage::begin(&there, header, image.len() + 1).is_none());
        assert!(ReceivedImage::begin(&there, header, image.len() - 1).is_none());
        assert!(ReceivedImage::begin(&PageStore::new(128), header, image.len()).is_none());
        let mut lying = *header;
        lying[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ReceivedImage::begin(&there, &lying, image.len()).is_none());
        lying[..4].copy_from_slice(b"MWCX");
        assert!(ReceivedImage::begin(&there, &lying, image.len()).is_none());
    }

    #[test]
    fn an_image_in_memory_takes_its_buffers_in_one_batch() {
        let here = PageStore::new(64);
        let w = here.create_world();
        for vpn in 0..64 {
            here.write(w, vpn, 0, &[vpn as u8; 64]).unwrap();
        }
        let desc = describe(&here, w).unwrap();
        let bytes = desc.to_vec();
        let into_a_pool_of_40 = |way: &dyn Fn(&PageStore) -> Result<WorldId>| {
            let there = PageStore::new(64);
            let scratch = there.create_world();
            for vpn in 0..40 {
                there.write(scratch, vpn, 0, &[1]).unwrap();
            }
            there.drop_world(scratch).unwrap();
            let before = there.stats();
            let world = way(&there).unwrap();
            assert_eq!(there.read_vec(world, 63, 0, 64).unwrap(), vec![63; 64]);
            there.verify_refcounts().unwrap();
            there.stats().delta_since(&before)
        };
        for (way, d) in [
            ("restore", into_a_pool_of_40(&|s| restore(s, &bytes))),
            ("copy_into", into_a_pool_of_40(&|s| desc.copy_into(s))),
        ] {
            // One acquisition takes all 64 buffers; each of the 64 new
            // frames takes one more for its slot (`FrameTable::alloc`).
            assert_eq!(d.recycler_locks, 1 + 64, "{way}");
            assert_eq!(d.frames_recycled, 40, "{way}: every pooled buffer");
        }
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
