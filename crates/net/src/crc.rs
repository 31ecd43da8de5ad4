//! CRC-32 (IEEE 802.3 polynomial), slicing-by-16.
//!
//! Every frame carries a trailing checksum so a truncated or bit-flipped
//! frame is rejected at the codec layer instead of surfacing as a corrupt
//! checkpoint image or a garbled page. The polynomial is the ubiquitous
//! reflected `0xEDB88320` — the same CRC Ethernet, gzip and PNG use — so
//! captures can be cross-checked with any standard tool.
//!
//! A 1 MiB checkpoint image is checksummed once on each side of the
//! wire, so the loop's bytes per cycle set the floor under `rfork`. The
//! classic table loop retires one byte per dependent table lookup;
//! slicing folds sixteen bytes per step through sixteen independent
//! lookups the CPU overlaps. Measured on the `dist_block_tcp` ladder
//! (`net.crc_mb_s`, 2 vCPUs): byte loop 0.5 GB/s, by-8 1.9–2.3, by-16
//! 3.4–4.2, by-32 4.2–5.0 — but by-32 moves `remote.rfork_full_ns` no
//! further than by-16 does and its tables would fill a 32 KiB L1d on
//! their own, so sixteen it is. It is plain integer code: no
//! `std::arch`, no CPU detection, the same instructions and the same
//! values on every target, so there is exactly one checksum path to
//! test.

/// Bytes folded per step of the main loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table for the reflected
/// IEEE polynomial; `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes. Built at compile time (16 KiB of `.rodata`) so the
/// codec has no lazy-init state; a `static`, because an unoptimised
/// build copies a `const` array to the stack at every use.
static TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value `!0`, final complement — the standard
/// "CRC-32/ISO-HDLC" parameters).
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0, bytes)
}

/// Continue a checksum: `update(crc32(a), b) == crc32(a ++ b)`, starting
/// from `0` for the empty prefix. Lets a reader checksum a header and a
/// body that live in different buffers without joining them.
pub fn update(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut blocks = bytes.chunks_exact(SLICES);
    for block in &mut blocks {
        // The running CRC folds into the first four bytes; then every
        // byte's lookup is independent of the others.
        let mut block: [u8; SLICES] = block.try_into().expect("chunks_exact");
        for (b, c) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        crc = 0;
        for (i, &b) in block.iter().enumerate() {
            crc ^= TABLES[SLICES - 1 - i][b as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The byte-at-a-time loop the slicing code replaced: the oracle.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = b"multiple worlds".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() * 8 {
            data[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&data), clean, "bit {i} undetected");
            data[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_alignment() {
        let buf = random_bytes(1, 8 + 257);
        for start in 0..8 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn slicing_matches_bytewise_on_large_random_inputs() {
        for (seed, len) in [(2, 4096), (3, 1 << 20), (4, (1 << 20) + 13)] {
            let buf = random_bytes(seed, len);
            assert_eq!(crc32(&buf), bytewise(&buf), "seed {seed} len {len}");
        }
    }

    #[test]
    fn streaming_update_equals_one_shot_at_every_split() {
        let buf = random_bytes(5, 300);
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(update(update(0, a), b), whole, "split at {cut}");
        }
    }
}
