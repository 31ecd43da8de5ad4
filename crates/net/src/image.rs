//! An `Rfork` payload read off the socket straight into the frames of the
//! world it restores.
//!
//! A checkpoint image is a 32-byte header and then records of one fixed
//! size: a 9-byte record header and one page. Once the header names this
//! build's format, the receiving store's page size and a record count
//! whose records exactly fill the payload, the reader knows where every
//! later byte belongs. So it takes page buffers from the store's recycle
//! pool ([`ReceivedImage`]) and reads each record's two parts into them
//! with vectored reads, folding the frame's CRC over the bytes as they
//! arrive. Nothing of the image is copied in user space, and the buffers
//! become the new world's frames when the request is applied — which, as
//! for every frame, happens only once the whole frame has arrived and its
//! CRC checks. A short read or a bad CRC drops the [`ReceivedImage`],
//! which gives its buffers back to the pool; the connection closes as it
//! does for any broken frame.
//!
//! Any other payload — another kind, or an image whose header does not
//! describe such records — is read into the connection's frame buffer,
//! and an image among them fails the one header check, which `restore`
//! shares: it refuses it with the error every receiver gives it.

use crate::crc;
use crate::error::NetError;
use crate::frame::{fill, read_body, Envelope, Head, FRAME_TRAILER, READ_CHUNK};
use crate::rpc::kind;
use std::io::{IoSliceMut, Read};
use worlds_pagestore::{PageStore, ReceivedImage, IMAGE_HEADER};

/// Records per vectored read: 128 slices, 256 KiB of 4 KiB pages.
const RECORDS_PER_READ: usize = 64;

/// Read the body of the frame `head` announced: an `Rfork` image into
/// page buffers of `store` when its header allows, anything else into
/// `wire` (cleared first; holding exactly the payload on success and
/// nothing on failure).
pub(crate) fn read_request_body(
    r: &mut impl Read,
    head: &mut Head,
    store: &PageStore,
    wire: &mut Vec<u8>,
) -> Result<(Envelope, Option<ReceivedImage>), NetError> {
    wire.clear();
    if head.kind() != kind::RFORK || head.len() < IMAGE_HEADER {
        return read_body(r, head, wire).map(|envelope| (envelope, None));
    }
    let mut header = [0u8; IMAGE_HEADER];
    fill(r, &mut header, 0, &mut head.patience)?;
    let Some(mut image) = ReceivedImage::begin(store, &header, head.len()) else {
        wire.extend_from_slice(&header);
        return read_body(r, head, wire).map(|envelope| (envelope, None));
    };
    let mut crc = crc::update(head.crc(), &header);
    read_records(r, &mut image, &mut crc, head)?;
    let mut trailer = [0u8; FRAME_TRAILER];
    fill(r, &mut trailer, 0, &mut head.patience)?;
    if crc.to_le_bytes() != trailer {
        return Err(NetError::BadCrc);
    }
    Ok((head.envelope(), Some(image)))
}

/// Read every record of `image`, folding each read's bytes into `crc`.
/// Page buffers are taken at most one [`READ_CHUNK`] of records ahead of
/// the bytes received, so a length field that lies costs no more than it
/// does any other frame.
fn read_records(
    r: &mut impl Read,
    image: &mut ReceivedImage,
    crc: &mut u32,
    head: &mut Head,
) -> Result<(), NetError> {
    let record = image.record_len();
    let total = image.records() * record;
    let ahead = (READ_CHUNK / record).max(1);
    let mut at = 0;
    while at < total {
        let (first, skip) = (at / record, at % record);
        if first == image.reserved() {
            image.reserve(first + ahead);
        }
        let records = first..image.reserved().min(first + RECORDS_PER_READ);
        let got = {
            let mut bufs: [IoSliceMut<'_>; 2 * RECORDS_PER_READ] =
                std::array::from_fn(|_| IoSliceMut::new(&mut []));
            let mut filled = 0;
            for (slot, buf) in bufs
                .iter_mut()
                .zip(image.records_mut(records.clone()).flatten())
            {
                *slot = IoSliceMut::new(buf);
                filled += 1;
            }
            let mut bufs = &mut bufs[..filled];
            IoSliceMut::advance_slices(&mut bufs, skip);
            head.patience.read(r.read_vectored(bufs))?
        };
        let (mut skip, mut left) = (skip, got);
        for bytes in image.records_ref(records).flatten() {
            if left == 0 {
                break;
            }
            if skip >= bytes.len() {
                skip -= bytes.len();
                continue;
            }
            let end = bytes.len().min(skip + left);
            *crc = crc::update(*crc, &bytes[skip..end]);
            left -= end - skip;
            skip = 0;
        }
        at += got;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_head_idle, FRAME_HEADER};
    use crate::rpc::Request;
    use std::io::{self, IoSliceMut};
    use std::sync::atomic::AtomicBool;
    use worlds_pagestore::{checkpoint, checkpoint_delta, restore, WorldId};

    const PAGE: usize = 4096;
    /// Bytes per record: a 9-byte record header and one page.
    const RECORD: usize = 9 + PAGE;

    /// Every most-bytes-per-read a test drives the reader with: each size
    /// up to ten, and one page less, equal and more.
    fn read_sizes() -> impl Iterator<Item = usize> {
        (1..=10).chain(PAGE - 1..=PAGE + 1)
    }

    /// A reader that hands out at most `most` bytes per call, vectored
    /// reads included, so every read splits where `most` says.
    struct Trickle<'a> {
        bytes: &'a [u8],
        most: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            let mut n = 0;
            for buf in bufs {
                let k = buf.len().min(self.most - n).min(self.bytes.len());
                let (now, later) = self.bytes.split_at(k);
                buf[..k].copy_from_slice(now);
                self.bytes = later;
                n += k;
            }
            Ok(n)
        }
    }

    /// A base world of eight distinct pages, and a child of it with three
    /// pages rewritten.
    fn origin() -> (PageStore, WorldId, WorldId) {
        let store = PageStore::new(PAGE);
        let base = store.create_world();
        for vpn in 0..8u64 {
            let page: Vec<u8> = (0..PAGE).map(|i| (i as u64 ^ (vpn * 37)) as u8).collect();
            store.write(base, vpn, 0, &page).unwrap();
        }
        let child = store.fork_world(base).unwrap();
        for vpn in [1, 4, 6] {
            store
                .write(child, vpn, 0, &[vpn as u8 + 200; PAGE])
                .unwrap();
        }
        (store, base, child)
    }

    /// A receiver and the `Rfork` frame it is sent, with the world the
    /// frame should restore and its record count: the child's full image
    /// to an empty store, or its delta to a store that holds the base's
    /// replica.
    fn case(
        origin: &PageStore,
        base: WorldId,
        child: WorldId,
        delta: bool,
    ) -> (PageStore, Vec<u8>, usize) {
        let there = PageStore::new(PAGE);
        let image = if delta {
            let replica = restore(&there, &checkpoint(origin, base).unwrap()).unwrap();
            checkpoint_delta(origin, child, base, replica.raw()).unwrap()
        } else {
            checkpoint(origin, child).unwrap()
        };
        let records = (image.len() - IMAGE_HEADER) / RECORD;
        (there, Request::Rfork { image }.encode_frame(7), records)
    }

    /// Read `frame` off a reader that hands out at most `most` bytes a
    /// call, as a node does, and restore the image it carries.
    fn receive(store: &PageStore, frame: &[u8], most: usize) -> Result<WorldId, NetError> {
        let stop = AtomicBool::new(false);
        let mut r = Trickle { bytes: frame, most };
        let mut head = read_head_idle(&mut r, &stop)?.expect("a frame");
        let mut wire = Vec::new();
        let (envelope, image) = read_request_body(&mut r, &mut head, store, &mut wire)?;
        assert_eq!((envelope.kind, envelope.corr), (kind::RFORK, 7));
        assert!(
            wire.is_empty(),
            "an image is not read into the frame buffer"
        );
        let image = image.expect("an image of this store's page size streams");
        Ok(image.restore().unwrap())
    }

    fn assert_same_pages(origin: &PageStore, world: WorldId, store: &PageStore, there: WorldId) {
        assert_eq!(
            store.mapped_vpns(there).unwrap(),
            origin.mapped_vpns(world).unwrap()
        );
        for vpn in origin.mapped_vpns(world).unwrap() {
            assert_eq!(
                store.read_vec(there, vpn, 0, PAGE).unwrap(),
                origin.read_vec(world, vpn, 0, PAGE).unwrap(),
                "vpn {vpn}"
            );
        }
    }

    #[test]
    fn every_read_size_restores_the_origin() {
        let (origin, base, child) = origin();
        for delta in [false, true] {
            for most in read_sizes() {
                let (there, frame, _) = case(&origin, base, child, delta);
                let world = receive(&there, &frame, most).unwrap();
                assert_same_pages(&origin, child, &there, world);
                there.verify_refcounts().unwrap();
            }
        }
    }

    #[test]
    fn a_flipped_byte_is_refused_at_every_read_size_and_leaves_nothing_behind() {
        let (origin, base, child) = origin();
        let body = FRAME_HEADER + IMAGE_HEADER;
        for delta in [false, true] {
            let (_, frame, _) = case(&origin, base, child, delta);
            let flips = [
                ("the image header's base field", FRAME_HEADER + 24),
                ("record 1's kind", body + RECORD + 8),
                ("a byte of record 2's page", body + 2 * RECORD + 9 + 100),
                ("the frame trailer", frame.len() - 1),
            ];
            for (place, at) in flips {
                for most in read_sizes() {
                    let what = format!("delta {delta}, {place}, {most} bytes a read");
                    let (there, mut frame, records) = case(&origin, base, child, delta);
                    frame[at] ^= 0x40;
                    let before = (there.world_count(), there.live_frames());
                    let recycled = there.stats().frames_recycled;
                    assert!(
                        matches!(receive(&there, &frame, most), Err(NetError::BadCrc)),
                        "{what}"
                    );
                    there.verify_refcounts().unwrap();
                    assert_eq!((there.world_count(), there.live_frames()), before, "{what}");
                    // The pool was empty, so the refused frame's buffers
                    // were fresh: the next image takes every one back.
                    frame[at] ^= 0x40;
                    let world = receive(&there, &frame, most).unwrap();
                    assert_eq!(
                        there.stats().frames_recycled - recycled,
                        records as u64,
                        "{what}"
                    );
                    assert_same_pages(&origin, child, &there, world);
                }
            }
        }
    }
}
