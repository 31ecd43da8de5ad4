//! The length-prefixed, checksummed frame every byte on the wire lives in.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "MWNF" | version u8 | kind u8 | corr u64 | len u32 | payload | crc32 u32
//! 0            | 4          | 5       | 6        | 14      | 18      | 18+len
//! ```
//!
//! * `version` gates the whole frame: a reader that sees a version it does
//!   not speak rejects the connection instead of misparsing payloads.
//! * `kind` is the RPC discriminant (see [`crate::rpc`]); the codec itself
//!   is agnostic and carries any kind.
//! * `corr` is the correlation id: a reply echoes the request's `corr`,
//!   and a retried request *reuses* it, which is what makes server-side
//!   idempotency possible (the server's reply ledger is keyed by `corr`).
//! * `crc32` covers header *and* payload, so truncation, bit rot and
//!   frames cut mid-payload by a dying connection are all caught here.

use crate::crc;
use crate::error::NetError;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Frame magic: "Multiple Worlds Net Frame".
pub const FRAME_MAGIC: &[u8; 4] = b"MWNF";
/// Protocol version this build speaks.
pub const FRAME_VERSION: u8 = 1;
/// Bytes before the payload: magic + version + kind + corr + len.
pub const FRAME_HEADER: usize = 18;
/// Bytes after the payload: the CRC.
pub const FRAME_TRAILER: usize = 4;
/// Upper bound on a payload. A full checkpoint of a large world is the
/// biggest legitimate payload; 64 MiB is far above anything the paper's
/// 70 KB process images suggest while still rejecting a garbage length
/// field before it turns into a giant allocation.
pub const MAX_PAYLOAD: usize = 64 << 20;
/// How far ahead of the bytes actually received a reader reserves body
/// space. The length field is unverified until the CRC at the frame's
/// end checks out, so it only ever buys one chunk of (untouched, never
/// zero-filled) capacity; every frame up to this size is still a single
/// exact allocation. A server reading an image into page buffers takes
/// them by the same rule: at most one chunk of records ahead.
///
/// It is also the most frame-buffer capacity a server connection keeps
/// between frames (`shed_oversized`): it keeps its buffer for its whole
/// life, so a steady stream of small frames allocates none, but one that
/// carried a larger frame hands it back to the allocator.
pub const READ_CHUNK: usize = 4 << 20;
/// How long a server-side reader lets a frame stall mid-flight before
/// calling the stream desynchronised: the scale of a client's
/// [`crate::RetryPolicy::deadline`], not of the 25 ms tick the reader
/// polls `stop` on.
const MID_FRAME_STALL: Duration = Duration::from_millis(250);

/// One decoded frame: the RPC discriminant, the correlation id, and the
/// opaque payload the `rpc` layer interprets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub corr: u64,
    pub payload: Vec<u8>,
}

/// Serialise one frame into `out`, which is cleared first and grown at
/// most once, to fit `payload_hint` payload bytes: header, whatever `put`
/// appends as the payload, CRC. The whole-frame encoder: [`Frame::encode`],
/// `Request::encode_frame` and the replies a server writes from the
/// buffer it keeps go through it. A client's requests go out gathered
/// from where their bytes lie instead ([`write_gathered`]); the bytes on
/// the wire are the same.
pub(crate) fn encode_into(
    kind: u8,
    corr: u64,
    payload_hint: usize,
    out: &mut Vec<u8>,
    put: impl FnOnce(&mut Vec<u8>),
) {
    out.clear();
    out.reserve_exact(FRAME_HEADER + payload_hint + FRAME_TRAILER);
    out.extend_from_slice(FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind);
    out.extend_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    put(out);
    // A payload past 4 GiB saturates the field, so the receiver rejects
    // it as too large instead of misreading a wrapped length.
    let len = u32::try_from(out.len() - FRAME_HEADER).unwrap_or(u32::MAX);
    out[14..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
    let crc = crc::crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// [`encode_into`] a fresh buffer.
pub(crate) fn encode_with(
    kind: u8,
    corr: u64,
    payload_hint: usize,
    put: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(kind, corr, payload_hint, &mut out, put);
    out
}

/// Keep `buf` for the next frame unless it has grown past [`READ_CHUNK`];
/// a buffer that large goes back to the allocator.
pub(crate) fn shed_oversized(buf: &mut Vec<u8>) {
    if buf.capacity() > READ_CHUNK {
        *buf = Vec::new();
    }
}

/// A frame on its way out: its header, and its payload as the slices the
/// payload's bytes already lie in. Nothing is copied to send it.
#[derive(Debug)]
pub(crate) struct Outgoing<'a> {
    pub(crate) corr: u64,
    head: [u8; FRAME_HEADER],
    pieces: Vec<&'a [u8]>,
    len: usize,
}

impl<'a> Outgoing<'a> {
    /// A frame of `kind` under `corr` whose payload is `pieces`, in order.
    pub(crate) fn new(kind: u8, corr: u64, pieces: Vec<&'a [u8]>) -> Outgoing<'a> {
        let len: usize = pieces.iter().map(|p| p.len()).sum();
        let mut head = [0u8; FRAME_HEADER];
        head[..4].copy_from_slice(FRAME_MAGIC);
        head[4] = FRAME_VERSION;
        head[5] = kind;
        head[6..14].copy_from_slice(&corr.to_le_bytes());
        // Saturated as `encode_into` does: the receiver rejects it as too
        // large instead of misreading a wrapped length.
        let field = u32::try_from(len).unwrap_or(u32::MAX);
        head[14..].copy_from_slice(&field.to_le_bytes());
        Outgoing {
            corr,
            head,
            pieces,
            len,
        }
    }

    /// Total bytes this frame occupies on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        FRAME_HEADER + self.len + FRAME_TRAILER
    }
}

/// Slices handed to one `write_vectored` call (a 4 KiB page is two: its
/// record header and its bytes). Each window's CRC is folded just before
/// the window goes out, while its bytes are in cache.
const GATHER: usize = 128;

/// Write `frames` to `w` as one gather list: each frame's header, payload
/// slices and CRC trailer in turn, straight from where they lie, a window
/// of [`GATHER`] slices per `write_vectored` loop. The CRC of a frame is
/// folded over its slices as they join a window, so its trailer is known
/// when the window that ends the frame goes out. `written` counts the
/// bytes the writer took, including when it fails part-way.
pub(crate) fn write_gathered(
    w: &mut impl Write,
    frames: &[&Outgoing<'_>],
    written: &mut usize,
) -> io::Result<()> {
    // Every slice of every frame in wire order; `None` is a trailer.
    let mut slices = frames.iter().flat_map(|f| {
        std::iter::once(Some(&f.head[..]))
            .chain(f.pieces.iter().map(|&p| Some(p)))
            .chain(std::iter::once(None))
    });
    let mut crc = 0;
    // A window's slices; a `None` at `k` is the trailer held in `tails[k]`.
    let mut window: [Option<&[u8]>; GATHER] = [None; GATHER];
    let mut tails = [[0u8; FRAME_TRAILER]; GATHER];
    loop {
        let mut len = 0;
        while len < GATHER {
            match slices.next() {
                // An empty slice adds nothing, and a window of them alone
                // would read as a writer that took nothing.
                Some(Some([])) => continue,
                Some(Some(bytes)) => {
                    crc = crc::update(crc, bytes);
                    window[len] = Some(bytes);
                }
                Some(None) => {
                    tails[len] = crc.to_le_bytes();
                    window[len] = None;
                    crc = 0;
                }
                None => break,
            }
            len += 1;
        }
        if len == 0 {
            return Ok(());
        }
        let mut iov = [IoSlice::new(&[]); GATHER];
        for (k, slot) in iov[..len].iter_mut().enumerate() {
            *slot = IoSlice::new(window[k].unwrap_or(&tails[k]));
        }
        let mut iov = &mut iov[..len];
        while !iov.is_empty() {
            match w.write_vectored(iov) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    *written += n;
                    IoSlice::advance_slices(&mut iov, n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A frame read into a caller's buffer: everything but the payload, which
/// is what the buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Envelope {
    pub(crate) kind: u8,
    pub(crate) corr: u64,
    /// Bytes the frame occupied on the wire.
    pub(crate) wire_len: usize,
}

impl Envelope {
    fn with_payload(self, payload: Vec<u8>) -> (Frame, usize) {
        (Frame::new(self.kind, self.corr, payload), self.wire_len)
    }
}

/// Validate a header's magic, version and length field; returns the
/// payload length.
fn checked_payload_len(header: &[u8]) -> Result<usize, NetError> {
    if &header[0..4] != FRAME_MAGIC {
        return Err(NetError::BadMagic);
    }
    if header[4] != FRAME_VERSION {
        return Err(NetError::BadVersion(header[4]));
    }
    let len = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(NetError::TooLarge(len));
    }
    Ok(len)
}

impl Frame {
    pub fn new(kind: u8, corr: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            corr,
            payload,
        }
    }

    /// Total bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER + self.payload.len() + FRAME_TRAILER
    }

    /// Serialise to wire bytes (header | payload | crc).
    pub fn encode(&self) -> Vec<u8> {
        encode_with(self.kind, self.corr, self.payload.len(), |out| {
            out.extend_from_slice(&self.payload)
        })
    }

    /// Parse one frame from a complete byte buffer. `buf` must hold
    /// exactly one frame.
    pub fn decode(buf: &[u8]) -> Result<Frame, NetError> {
        if buf.len() < FRAME_HEADER + FRAME_TRAILER {
            return Err(NetError::Truncated);
        }
        let len = checked_payload_len(buf)?;
        if buf.len() != FRAME_HEADER + len + FRAME_TRAILER {
            return Err(NetError::Truncated);
        }
        let (body, trailer) = buf.split_at(FRAME_HEADER + len);
        if crc::crc32(body).to_le_bytes() != trailer {
            return Err(NetError::BadCrc);
        }
        Ok(Frame {
            kind: buf[5],
            corr: u64::from_le_bytes(buf[6..14].try_into().expect("8 bytes")),
            payload: body[FRAME_HEADER..].to_vec(),
        })
    }
}

/// Write one frame to `w` and flush it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, NetError> {
    let bytes = frame.encode();
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Read exactly one frame from `r`, which must be positioned at a frame
/// boundary. Returns the frame and its on-wire size.
///
/// Any short read — EOF mid-frame, a read timeout firing after the
/// header arrived — is a hard [`NetError`]; the caller must treat the
/// stream as desynchronised and drop it.
///
/// The body lands in one `Vec` that becomes the frame's payload, grown
/// only as bytes arrive. Hand in a [`std::io::BufReader`] kept for the
/// life of the connection and a frame that fits its buffer costs one
/// `read` system call.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), NetError> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload).map(|envelope| envelope.with_payload(payload))
}

/// [`read_frame`] into `payload`, a buffer the caller keeps: on success
/// it holds exactly the frame's payload, on any failure nothing.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
) -> Result<Envelope, NetError> {
    payload.clear();
    let mut header = [0u8; FRAME_HEADER];
    let mut patience = Patience::default();
    fill(r, &mut header, 0, &mut patience)?;
    read_body(r, &mut Head::checked(header, patience)?, payload)
}

/// Like [`read_frame`], but for a server polling `stop` on a short read
/// timeout. Timeouts while waiting for the first byte of the next frame
/// return `Ok(None)` once `stop` is set and otherwise keep waiting, so
/// pooled connections that are merely quiet survive. Once the first
/// byte has arrived the poll tick stops meaning anything: a sender
/// descheduled mid-payload is not desync, so timeouts keep waiting —
/// still checking `stop` — until no byte has arrived for a
/// request-scale stall, and only then error like [`read_frame`].
pub fn read_frame_idle(
    r: &mut impl Read,
    stop: &AtomicBool,
) -> Result<Option<(Frame, usize)>, NetError> {
    let mut payload = Vec::new();
    let read = read_frame_idle_into(r, stop, &mut payload)?;
    Ok(read.map(|envelope| envelope.with_payload(payload)))
}

/// [`read_frame_idle`] into a buffer the caller keeps, as
/// [`read_frame_into`] is to [`read_frame`].
pub(crate) fn read_frame_idle_into(
    r: &mut impl Read,
    stop: &AtomicBool,
    payload: &mut Vec<u8>,
) -> Result<Option<Envelope>, NetError> {
    payload.clear();
    match read_head_idle(r, stop)? {
        Some(mut head) => read_body(r, &mut head, payload).map(Some),
        None => Ok(None),
    }
}

/// A frame whose header has arrived and checked out, and whose body has
/// not been read: what a reader knows before it picks where the body
/// goes.
pub(crate) struct Head<'a> {
    bytes: [u8; FRAME_HEADER],
    len: usize,
    pub(crate) patience: Patience<'a>,
}

impl<'a> Head<'a> {
    /// Validate a header's magic, version and length field.
    fn checked(bytes: [u8; FRAME_HEADER], patience: Patience<'a>) -> Result<Head<'a>, NetError> {
        let len = checked_payload_len(&bytes)?;
        Ok(Head {
            bytes,
            len,
            patience,
        })
    }

    /// The frame's kind byte.
    pub(crate) fn kind(&self) -> u8 {
        self.bytes[5]
    }

    /// The payload length the header claims (checked against
    /// [`MAX_PAYLOAD`], otherwise unverified until the CRC).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The checksum of the header: where a reader's running CRC starts.
    pub(crate) fn crc(&self) -> u32 {
        crc::crc32(&self.bytes)
    }

    /// Everything but the payload, once the frame has been read whole.
    pub(crate) fn envelope(&self) -> Envelope {
        Envelope {
            kind: self.kind(),
            corr: u64::from_le_bytes(self.bytes[6..14].try_into().expect("8 bytes")),
            wire_len: FRAME_HEADER + self.len + FRAME_TRAILER,
        }
    }
}

/// Wait for the next frame's header as [`read_frame_idle`] does: `None`
/// when `stop` is set while no frame has started.
pub(crate) fn read_head_idle<'a>(
    r: &mut impl Read,
    stop: &'a AtomicBool,
) -> Result<Option<Head<'a>>, NetError> {
    let mut header = [0u8; FRAME_HEADER];
    let got = loop {
        if stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        match r.read(&mut header) {
            Ok(0) => return Err(NetError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => break n,
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    };
    let mut patience = Patience {
        stop: Some(stop),
        stalled_since: None,
    };
    fill(r, &mut header, got, &mut patience)?;
    Head::checked(header, patience).map(Some)
}

/// What a read timeout means once a frame has started arriving. A
/// client's socket timeout *is* its deadline, so it reads with no
/// patience and every timeout is fatal. A server's 25 ms timeout is only
/// a `stop` poll: it keeps waiting until the stream has been silent for
/// [`MID_FRAME_STALL`]. The clock is read only after a timeout, so the
/// common path never touches it.
#[derive(Default)]
pub(crate) struct Patience<'a> {
    /// `None`: the caller's socket timeout is final.
    stop: Option<&'a AtomicBool>,
    stalled_since: Option<Instant>,
}

impl Patience<'_> {
    /// Whether `e` is a timeout worth waiting out.
    fn waits_out(&mut self, e: &io::Error) -> bool {
        let Some(stop) = self.stop else { return false };
        is_timeout(e)
            && !stop.load(Ordering::Acquire)
            && self
                .stalled_since
                .get_or_insert_with(Instant::now)
                .elapsed()
                < MID_FRAME_STALL
    }

    /// Sort out one read's outcome: the bytes it delivered (and the stall
    /// clock restarted), `Ok(0)` for an interruption or a timeout worth
    /// waiting out, or the error that ends the frame — end of stream
    /// included.
    pub(crate) fn read(&mut self, read: io::Result<usize>) -> Result<usize, NetError> {
        match read {
            Ok(0) => Err(NetError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => {
                self.stalled_since = None;
                Ok(n)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted || self.waits_out(&e) => Ok(0),
            Err(e) => Err(NetError::Io(e)),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read until `buf[got..]` is full.
pub(crate) fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    mut got: usize,
    patience: &mut Patience,
) -> Result<(), NetError> {
    while got < buf.len() {
        got += patience.read(r.read(&mut buf[got..]))?;
    }
    Ok(())
}

/// Read the rest of `head`'s payload and its CRC into `body`, which holds
/// whatever of the payload was read already, verify, and leave exactly
/// the payload there. A failure leaves `body` empty: no half-read or
/// unverified bytes survive it.
pub(crate) fn read_body(
    r: &mut impl Read,
    head: &mut Head,
    body: &mut Vec<u8>,
) -> Result<Envelope, NetError> {
    let read = fill_body(r, head, body);
    if read.is_err() {
        body.clear();
    }
    read
}

fn fill_body(r: &mut impl Read, head: &mut Head, body: &mut Vec<u8>) -> Result<Envelope, NetError> {
    let len = head.len;
    let need = len + FRAME_TRAILER;
    while body.len() < need {
        if body.len() == body.capacity() {
            body.reserve_exact((need - body.len()).min(READ_CHUNK));
        }
        // `Take` caps the read at the room already reserved, so
        // `read_to_end` writes into spare capacity (no zero-fill) and
        // never grows the buffer on its own. It keeps what it read when
        // it fails, so a waited-out timeout resumes where it stopped.
        let before = body.len();
        let room = (body.capacity() - before).min(need - before);
        let read = r.by_ref().take(room as u64).read_to_end(body);
        if body.len() > before {
            head.patience.stalled_since = None;
        }
        match read {
            Ok(0) => return Err(NetError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(_) => {}
            Err(e) if head.patience.waits_out(&e) => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let crc = crc::update(head.crc(), &body[..len]);
    if crc.to_le_bytes() != body[len..] {
        return Err(NetError::BadCrc);
    }
    body.truncate(len);
    Ok(head.envelope())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes at most `step` bytes per call, is interrupted every third
    /// call, and breaks for good once `limit` bytes have been taken.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
        calls: usize,
        limit: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(ErrorKind::Interrupted.into());
            }
            if self.out.len() >= self.limit {
                return Err(ErrorKind::BrokenPipe.into());
            }
            let room = self.step.min(self.limit - self.out.len());
            let bytes: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let n = room.min(bytes.len());
            self.out.extend_from_slice(&bytes[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn gathered_frames_are_the_encoded_frames_whatever_the_writer_takes() {
        // A burst whose slices cross several windows and frame boundaries:
        // an empty payload, 300 slices of odd sizes (some empty), one slice.
        let bytes: Vec<u8> = (0..=255).cycle().take(9000).collect();
        let many: Vec<&[u8]> = (0..300).map(|i| &bytes[i * 29..i * 29 + i % 31]).collect();
        let frames = [(1, Vec::new()), (2, many), (3, vec![&bytes[..]])];
        let outgoing: Vec<Outgoing<'_>> = frames
            .iter()
            .map(|(corr, pieces)| Outgoing::new(*corr as u8 + 1, *corr, pieces.clone()))
            .collect();
        let expected: Vec<u8> = outgoing
            .iter()
            .flat_map(|f| Frame::new(f.head[5], f.corr, f.pieces.concat()).encode())
            .collect();
        let burst: Vec<&Outgoing<'_>> = outgoing.iter().collect();
        for step in [1, 7, 4096, usize::MAX] {
            let mut w = Trickle {
                out: Vec::new(),
                step,
                calls: 0,
                limit: usize::MAX,
            };
            let mut written = 0;
            write_gathered(&mut w, &burst, &mut written).unwrap();
            assert_eq!(w.out, expected, "step {step}");
            assert_eq!(written, expected.len());
            let sizes: usize = outgoing.iter().map(Outgoing::wire_len).sum();
            assert_eq!(sizes, expected.len());
        }
        // A writer that breaks part-way: what it took is counted.
        let mut w = Trickle {
            out: Vec::new(),
            step: 100,
            calls: 0,
            limit: 5000,
        };
        let mut written = 0;
        assert!(write_gathered(&mut w, &burst, &mut written).is_err());
        assert_eq!((written, &w.out[..]), (5000, &expected[..5000]));
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame::new(3, 0xDEAD_BEEF_CAFE, b"payload bytes".to_vec());
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_payload_round_trip() {
        let f = Frame::new(1, 7, Vec::new());
        assert_eq!(f.wire_len(), FRAME_HEADER + FRAME_TRAILER);
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn stream_round_trip() {
        let a = Frame::new(2, 1, vec![0xAA; 100]);
        let b = Frame::new(4, 2, Vec::new());
        let mut wire = Vec::new();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut r = &wire[..];
        let (got_a, len_a) = read_frame(&mut r).unwrap();
        let (got_b, len_b) = read_frame(&mut r).unwrap();
        assert_eq!((got_a, got_b), (a, b));
        assert_eq!(len_a + len_b, wire.len());
    }

    #[test]
    fn corruption_is_detected() {
        let f = Frame::new(2, 9, b"precious checkpoint image".to_vec());
        let clean = f.encode();
        // Flip one bit anywhere (except inside the CRC itself, where the
        // failure is still BadCrc but trivially so) — decode must fail.
        for i in 0..(clean.len() - FRAME_TRAILER) * 8 {
            let mut bad = clean.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert!(Frame::decode(&bad).is_err(), "bit {i} slipped through");
        }
    }

    #[test]
    fn bit_flips_in_a_large_frame_fail_the_crc() {
        use crate::fault::splitmix64;
        let payload = (0..(1u64 << 20) + 13).map(|i| splitmix64(i) as u8);
        let mut wire = Frame::new(2, 9, payload.collect()).encode();
        let body = wire.len() - FRAME_TRAILER;
        // One seeded bit in each range. `decode` checksums the frame from
        // its first byte, `read_frame` from the payload's (after the
        // header's own CRC), so each one's four fold lanes start in a
        // different place; both inputs end in a < 16-byte tail.
        let lanes = |from: usize| (0..4).map(move |lane| from + 16 * lane..from + 16 * lane + 16);
        // The header's kind and corr: its other fields fail their own
        // checks before the CRC is reached.
        let ranges = std::iter::once(5..14)
            .chain(lanes(0).skip(1))
            .chain(lanes(FRAME_HEADER))
            .chain([body / 2..body / 2 + 16, body - 13..body]);
        for (seed, range) in ranges.enumerate() {
            let bit = range.start * 8 + splitmix64(seed as u64) as usize % (range.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
            let decoded = Frame::decode(&wire);
            assert!(
                matches!(decoded, Err(NetError::BadCrc)),
                "decode, bit {bit}"
            );
            let read = read_frame(&mut &wire[..]);
            assert!(
                matches!(read, Err(NetError::BadCrc)),
                "read_frame, bit {bit}"
            );
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(Frame::decode(&wire).is_ok() && read_frame(&mut &wire[..]).is_ok());
    }

    #[test]
    fn truncation_is_detected() {
        let f = Frame::new(2, 9, b"cut short".to_vec());
        let clean = f.encode();
        for n in 0..clean.len() {
            assert!(Frame::decode(&clean[..n]).is_err(), "prefix {n} accepted");
            assert!(read_frame(&mut &clean[..n]).is_err(), "stream cut at {n}");
            let idle = read_frame_idle(&mut &clean[..n], &AtomicBool::new(false));
            assert!(idle.is_err(), "idle stream cut at {n}");
        }
    }

    #[test]
    fn large_frame_truncated_at_seeded_cuts_errors() {
        let clean = Frame::new(2, 9, vec![0x5A; 1 << 20]).encode();
        let mut cut = 1usize;
        for _ in 0..64 {
            cut = (crate::fault::splitmix64(cut as u64) % clean.len() as u64) as usize;
            assert!(read_frame(&mut &clean[..cut]).is_err(), "cut at {cut}");
        }
        assert!(read_frame(&mut &clean[..]).is_ok());
    }

    #[test]
    fn a_reused_buffer_holds_exactly_the_latest_frame_or_nothing() {
        let long = Frame::new(2, 1, vec![0xAB; 5000]).encode();
        let short = Frame::new(3, 2, b"short payload".to_vec());
        let mut buf = Vec::new();
        read_frame_into(&mut &long[..], &mut buf).unwrap();
        assert_eq!(buf, vec![0xAB; 5000]);
        let grown = buf.capacity();
        // A shorter frame after a longer one: its payload and no more, in
        // the same allocation.
        let wire = short.encode();
        let envelope = read_frame_into(&mut &wire[..], &mut buf).unwrap();
        assert_eq!((envelope.kind, envelope.corr), (3, 2));
        assert_eq!(envelope.wire_len, wire.len());
        assert_eq!(buf, short.payload);
        assert_eq!(buf.capacity(), grown);

        let stop = AtomicBool::new(false);
        let mut bad_crc = wire.clone();
        *bad_crc.last_mut().unwrap() ^= 1;
        for wire in [&bad_crc[..], &long[..long.len() - 1], &long[..10]] {
            read_frame_into(&mut &long[..], &mut buf).unwrap();
            let err = read_frame_into(&mut &wire[..], &mut buf).unwrap_err();
            assert!(buf.is_empty(), "{err}: stale bytes survived");
            read_frame_into(&mut &long[..], &mut buf).unwrap();
            assert!(read_frame_idle_into(&mut &wire[..], &stop, &mut buf).is_err());
            assert!(buf.is_empty(), "idle reader: stale bytes survived");
        }
        assert!(matches!(
            read_frame_into(&mut &bad_crc[..], &mut buf),
            Err(NetError::BadCrc)
        ));
    }

    #[test]
    fn a_frame_that_fits_the_connection_buffer_costs_one_read() {
        /// A socket with one whole frame queued per `read`.
        struct Arrivals<'a>(std::slice::Iter<'a, Vec<u8>>, usize);
        impl Read for Arrivals<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 += 1;
                let wire = self.0.next().map_or(&[][..], |w| w);
                buf[..wire.len()].copy_from_slice(wire);
                Ok(wire.len())
            }
        }
        let frames = [
            Frame::new(9, 1, vec![7; 150]),
            Frame::new(0x80, 2, vec![1; 8]),
        ];
        let wires: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        let stop = AtomicBool::new(false);
        let mut conn = io::BufReader::new(Arrivals(wires.iter(), 0));
        let first = read_frame_idle(&mut conn, &stop).unwrap().unwrap().0;
        assert_eq!((&first, conn.get_ref().1), (&frames[0], 1));
        let second = read_frame(&mut conn).unwrap().0;
        assert_eq!((&second, conn.get_ref().1), (&frames[1], 2));
    }

    /// Hands out `wire` a few bytes at a time, timing out before every
    /// read that would make progress — a sender the scheduler keeps
    /// interrupting, as seen through a socket with a short read timeout.
    struct Stuttering<'a> {
        wire: &'a [u8],
        step: usize,
        ready: bool,
    }

    impl Read for Stuttering<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.ready = !self.ready;
            if !self.ready {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = self.step.min(buf.len()).min(self.wire.len());
            buf[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            Ok(n)
        }
    }

    #[test]
    fn mid_frame_timeouts_are_waited_out_by_the_idle_reader_only() {
        let f = Frame::new(3, 11, (0..=255).cycle().take(5000).collect());
        let wire = f.encode();
        for step in [1, 7, 18, 4096] {
            let stutter = |ready| Stuttering {
                wire: &wire,
                step,
                ready,
            };
            let stop = AtomicBool::new(false);
            let (got, size) = read_frame_idle(&mut stutter(false), &stop)
                .expect("poll ticks are not desync")
                .expect("not stopped");
            assert_eq!((got, size), (f.clone(), wire.len()), "step {step}");
            // A client's timeout is its deadline: fatal wherever it lands.
            for ready in [false, true] {
                assert!(read_frame(&mut stutter(ready)).unwrap_err().is_timeout());
            }
        }
    }

    /// One header byte, then nothing but timeouts; optionally raises
    /// `stop` once the frame has started.
    struct Stalled<'a> {
        started: bool,
        raise: Option<&'a AtomicBool>,
    }

    impl Read for Stalled<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.started, true) {
                buf[0] = FRAME_MAGIC[0];
                return Ok(1);
            }
            if let Some(stop) = self.raise {
                stop.store(true, Ordering::Release);
            }
            std::thread::sleep(Duration::from_millis(5));
            Err(ErrorKind::WouldBlock.into())
        }
    }

    #[test]
    fn a_frame_silent_for_a_request_scale_stall_is_desync() {
        let stop = AtomicBool::new(false);
        let mut silent = Stalled {
            started: false,
            raise: None,
        };
        let began = Instant::now();
        let err = read_frame_idle(&mut silent, &stop).unwrap_err();
        assert!(err.is_timeout(), "{err}");
        assert!(began.elapsed() >= MID_FRAME_STALL);

        // Shutdown mid-frame ends the wait at the next tick.
        let mut stopping = Stalled {
            started: false,
            raise: Some(&stop),
        };
        let began = Instant::now();
        assert!(read_frame_idle(&mut stopping, &stop).is_err());
        assert!(began.elapsed() < MID_FRAME_STALL);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = Frame::new(1, 1, Vec::new()).encode();
        bytes[4] = FRAME_VERSION + 1;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::BadVersion(v)) if v == FRAME_VERSION + 1
        ));
    }

    #[test]
    fn giant_length_field_is_rejected_before_allocating() {
        let mut bytes = Frame::new(1, 1, Vec::new()).encode();
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(NetError::TooLarge(_))));
        let mut r = &bytes[..];
        assert!(matches!(read_frame(&mut r), Err(NetError::TooLarge(_))));
    }

    #[test]
    fn a_lying_length_field_buys_one_chunk_not_the_claim() {
        // The header claims MAX_PAYLOAD, ten bytes arrive, then EOF.
        let mut bytes = Frame::new(1, 1, Vec::new()).encode();
        bytes[14..18].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
        bytes.truncate(FRAME_HEADER);
        bytes.extend_from_slice(&[0xEE; 10]);
        assert!(matches!(read_frame(&mut &bytes[..]), Err(NetError::Io(_))));
    }
}
