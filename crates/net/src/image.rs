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
//! and `restore` refuses a malformed image with the error it gives every
//! receiver.

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
