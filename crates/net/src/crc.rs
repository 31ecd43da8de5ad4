//! CRC-32 (IEEE 802.3 polynomial): carry-less-multiply folding where the
//! CPU has it, slicing-by-16 everywhere else.
//!
//! Every frame carries a trailing checksum so a truncated or bit-flipped
//! frame is rejected at the codec layer instead of surfacing as a corrupt
//! checkpoint image or a garbled page. The polynomial is the ubiquitous
//! reflected `0xEDB88320` — the same CRC Ethernet, gzip and PNG use — so
//! captures can be cross-checked with any standard tool.
//!
//! A 1 MiB checkpoint image is checksummed once on each side of the
//! wire, so the checksum's bytes per cycle set a floor under `rfork`.
//! Two paths compute the same values:
//!
//! * **Folding** (x86_64 with `pclmulqdq` and `sse4.1`, inputs of at
//!   least 64 bytes): four 128-bit lanes are carried forward with
//!   carry-less multiplies by `x^n mod P`, folded into one, and reduced
//!   to 32 bits by a Barrett step. Below 64 bytes the four lanes do not
//!   fill; at 64 bytes folding already takes half the table loop's time
//!   (17 against 33 ns), so that is the threshold. A 1 MiB input folds
//!   at about 20 GB/s; `net.crc_mb_s` on the `dist_block_tcp` ladder
//!   went from 2.1 to 16.9 GB/s (2 vCPUs).
//! * **Slicing-by-16** for everything else: the 18-byte header a reader
//!   checks on its own, small frames, the < 16-byte tail after the
//!   folded blocks, and CPUs or targets without the instructions. It
//!   folds sixteen bytes per step through sixteen independent table
//!   lookups: 2–4 GB/s.
//!
//! The CPU and the input length pick the path; nothing else can. Every
//! length 0..=1024 at every offset 0..16 is checked on both paths
//! against the byte-at-a-time oracle, so the threshold, each fold lane
//! and every tail length are crossed in tests.

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
    #[cfg(target_arch = "x86_64")]
    if folds(bytes.len()) {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `folds` saw the CPU report pclmulqdq and sse4.1.
        let crc = unsafe { clmul::fold(crc, body) };
        return slicing(crc, tail);
    }
    slicing(crc, bytes)
}

/// Whether `update` folds an input of `len` bytes with carry-less
/// multiplies: the CPU has the instructions and the input is long enough
/// for them to beat the tables.
#[cfg(target_arch = "x86_64")]
fn folds(len: usize) -> bool {
    len >= clmul::MIN_LEN
        && std::is_x86_feature_detected!("pclmulqdq")
        && std::is_x86_feature_detected!("sse4.1")
}

/// The portable path: sixteen table lookups per sixteen bytes, then the
/// byte loop for the tail. Same contract as [`update`].
pub(crate) fn slicing(crc: u32, bytes: &[u8]) -> u32 {
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

/// Folding with `pclmulqdq`, after Intel's "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Gopal et al., 2009),
/// bit-reflected variant. Four 128-bit lanes each stand for a polynomial;
/// multiplying a lane by `x^512 mod P` moves it 64 bytes forward, onto the
/// next block it is xored with. At the end the lanes fold into one, the
/// 128 bits shrink to 64, and a Barrett reduction leaves the 32-bit CRC.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input folded: one 16-byte block per lane. Folding already
    /// takes half the table loop's time at this length, so no longer
    /// threshold pays.
    pub(super) const MIN_LEN: usize = 64;

    // Each key is `x^n mod P(x)`, bit-reflected and shifted left by one,
    // for the `n` named.
    /// `n = 4·128 + 32`: folds a lane 512 bits forward (low half).
    const K1: i64 = 0x1_5444_2BD4;
    /// `n = 4·128 − 32`: the same, high half.
    const K2: i64 = 0x1_C6E4_1596;
    /// `n = 128 + 32`: folds a lane 128 bits forward (low half).
    const K3: i64 = 0x1_7519_97D0;
    /// `n = 128 − 32`: the same, high half.
    const K4: i64 = 0x0_CCAA_009E;
    /// `n = 64`: folds 96 bits down to 64.
    const K5: i64 = 0x1_63CD_6124;
    /// `P(x)` itself, bit-reflected over 33 bits.
    const P: i64 = 0x1_DB71_0641;
    /// `μ = ⌊x^64 / P(x)⌋`, bit-reflected over 33 bits: the Barrett
    /// constant.
    const MU: i64 = 0x1_F701_1641;

    /// `update(crc, bytes)` for `bytes` a whole number of 16-byte blocks,
    /// at least [`MIN_LEN`] long.
    ///
    /// # Safety
    ///
    /// Call it only on a CPU that reports `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= MIN_LEN && bytes.len().is_multiple_of(16));
        let mut blocks = bytes.chunks_exact(16).map(|b| {
            // SAFETY: `b` is 16 readable bytes, and `loadu` has no
            // alignment requirement.
            unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
        });
        let mut next = || blocks.next().expect("a 16-byte block");
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        // One fold: `lane · k` (both halves) xored onto `onto`.
        let fold = |lane, onto, k| {
            let lo = _mm_clmulepi64_si128(lane, k, 0x00);
            let hi = _mm_clmulepi64_si128(lane, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(onto, lo), hi)
        };

        let mut x = [next(), next(), next(), next()];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut left = bytes.len() / 16 - 4;
        while left >= 4 {
            for lane in &mut x {
                *lane = fold(*lane, next(), k1k2);
            }
            left -= 4;
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut r = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        for _ in 0..left {
            r = fold(r, next(), k3k4);
        }

        // 128 → 96 → 64 bits.
        let r = _mm_xor_si128(_mm_clmulepi64_si128(r, k3k4, 0x10), _mm_srli_si128(r, 8));
        let k5 = _mm_set_epi64x(0, K5);
        let r = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(r, low32), k5, 0x00),
            _mm_srli_si128(r, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the CRC
        // is the upper half of R ⊕ T2 (reflected bits).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(r, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        !(_mm_extract_epi32(_mm_xor_si128(r, t2), 1) as u32)
    }
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
    fn both_paths_match_bytewise_at_every_length_and_offset() {
        // Lengths 0..=1024 cross the folding threshold, every fold-lane
        // boundary and every tail length, at every offset in a 16-byte
        // block.
        let buf = random_bytes(1, 16 + 1024);
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                let want = bytewise(s);
                assert_eq!(slicing(0, s), want, "slicing start {start} len {len}");
                assert_eq!(crc32(s), want, "update start {start} len {len}");
            }
        }
    }

    #[test]
    fn both_paths_match_bytewise_on_large_random_inputs() {
        for (seed, len) in [(2, 4096), (3, 1 << 20), (4, (1 << 20) + 13)] {
            let buf = random_bytes(seed, len);
            let want = bytewise(&buf);
            assert_eq!(slicing(0, &buf), want, "slicing seed {seed} len {len}");
            assert_eq!(crc32(&buf), want, "update seed {seed} len {len}");
        }
    }

    #[test]
    fn streaming_update_equals_one_shot_at_every_split() {
        let buf = random_bytes(5, 4096);
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(update(update(0, a), b), whole, "split at {cut}");
        }
    }

    /// x86 runners all have `pclmulqdq`; without this the suite above
    /// would pass on them having tested only the table loop.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_pclmulqdq_cpu_takes_the_folding_path() {
        if std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1") {
            assert!(folds(clmul::MIN_LEN) && folds(1 << 20));
        }
        assert!(!folds(clmul::MIN_LEN - 1));
    }
}
