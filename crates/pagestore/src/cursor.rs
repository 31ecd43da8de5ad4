//! The one bounds-checked little-endian reader.
//!
//! Every hand-rolled binary decoder in the workspace — the checkpoint
//! image ([`crate::restore`]), the RPC payloads of `worlds-net` and the
//! telemetry payloads of `worlds-telemetry` — reads bytes that crossed a
//! network through this cursor, so there is one place where a short read
//! becomes an error instead of a panic. Errors are plain messages; each
//! decoder wraps them in its own error vocabulary.

/// A read position over a borrowed buffer. No method panics on any input.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    /// The next `n` bytes, borrowed from the buffer. `n` is usually a
    /// length the sender claimed, so the addition must not wrap.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {} (want {n} more)", self.at))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` shipped as its IEEE-754 bits in a little-endian `u64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Succeeds only when every byte has been read: trailing bytes mean
    /// the sender and this decoder disagree about the format.
    pub fn finish(&self) -> Result<(), String> {
        match self.buf.len() - self.at {
            0 => Ok(()),
            extra => Err(format!("{extra} trailing bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_and_tracks_position() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xA1B2_C3D4u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(b"tail");
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.u8(), Ok(7));
        assert_eq!(cur.u32(), Ok(0xA1B2_C3D4));
        assert_eq!(cur.u64(), Ok(u64::MAX));
        assert_eq!(cur.f64(), Ok(1.5));
        assert!(cur.finish().unwrap_err().contains("4 trailing"));
        assert_eq!(cur.take(4), Ok(&b"tail"[..]));
        assert_eq!(cur.finish(), Ok(()));
    }

    #[test]
    fn short_reads_are_errors_and_consume_nothing() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert!(cur.u32().is_err());
        assert!(cur.u64().is_err());
        // A claimed length that would wrap the position is just "short".
        assert!(cur.take(usize::MAX).is_err());
        assert_eq!(
            cur.take(3),
            Ok(&[1u8, 2, 3][..]),
            "failed reads moved nothing"
        );
        assert!(cur.u8().is_err());
        assert_eq!(cur.finish(), Ok(()));
    }
}
