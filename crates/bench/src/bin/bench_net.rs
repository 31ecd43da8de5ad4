//! `bench-net` — what the wire transport costs and what deltas save.
//!
//! Three measurements, three claims of the worlds-net PR:
//!
//! * **Frame codec throughput** — encode + decode MB/s for small
//!   (command-sized) and large (checkpoint-sized) payloads. The codec is
//!   one length-prefixed copy plus a CRC-32 (carry-less-multiply folding
//!   where the CPU has it, else slicing-by-16). The same run times
//!   the byte-at-a-time CRC the codec used to ship, as an oracle, and
//!   fails unless the large-frame codec — copy included — moves at least
//!   twice the oracle's bytes per second: a ratio, so it holds on any
//!   runner, and the line a slide back to the bytewise loop trips.
//! * **rfork end-to-end** — checkpoint → ship → restore, in-process
//!   (direct `restore`) versus real loopback TCP (framed RPC through
//!   `worlds-net`, reply awaited). The gap is the true price of sockets,
//!   syscalls and framing for the paper's §3.4 operation.
//! * **Delta vs full checkpoint** — bytes shipped when rforking a
//!   sibling world that differs from an already-shipped base by a few
//!   pages. The delta image must stay under 25% of the full image
//!   (the acceptance line; in practice it is a few percent).
//!
//! Results land in `BENCH_net.json` (or the path given as the first
//! non-flag argument). `--smoke` shrinks every knob for CI.
//!
//! ```text
//! cargo run --release -p worlds-bench --bin bench-net [out.json] [--smoke]
//! ```

use std::time::Instant;

use worlds_net::{crc32, Conn, Frame, NetNode, Request, RetryPolicy};
use worlds_obs::Registry;
use worlds_pagestore::{checkpoint, checkpoint_delta, restore, PageStore};

const PAGE: usize = 4096;

/// Encode+decode `frames` frames of `payload` bytes; returns
/// (encode MB/s, decode MB/s).
fn codec_throughput(frames: usize, payload: usize) -> (f64, f64) {
    let body = vec![0xA5u8; payload];
    let frame = Frame::new(2, 7, body);
    let mut encoded = Vec::new();
    let t0 = Instant::now();
    for _ in 0..frames {
        encoded = frame.encode();
        std::hint::black_box(encoded.len());
    }
    let enc_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for _ in 0..frames {
        let decoded = Frame::decode(&encoded).expect("round trip");
        std::hint::black_box(decoded.corr);
    }
    let dec_secs = t1.elapsed().as_secs_f64();
    let mb = (frames * frame.wire_len()) as f64 / 1e6;
    (mb / enc_secs, mb / dec_secs)
}

/// The byte-at-a-time table CRC-32 `worlds-net` shipped before slicing:
/// the yardstick the codec is held against.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    static TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    !bytes.iter().fold(!0u32, |crc, &b| {
        (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize]
    })
}

/// MB/s of `crc` over a large frame's wire bytes, `passes` times.
fn crc_throughput(passes: usize, wire: &[u8], crc: fn(&[u8]) -> u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..passes {
        std::hint::black_box(crc(std::hint::black_box(wire)));
    }
    (passes * wire.len()) as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

/// A store with one world of `pages` written pages.
fn origin(pages: u64) -> (PageStore, worlds_pagestore::WorldId) {
    let store = PageStore::new(PAGE);
    let w = store.create_world();
    for vpn in 0..pages {
        store.write(w, vpn, 0, &[vpn as u8; PAGE]).unwrap();
    }
    (store, w)
}

/// Mean seconds per in-process rfork (checkpoint + local restore).
fn rfork_in_process(pages: u64, iters: usize) -> f64 {
    let (store, w) = origin(pages);
    let dst = PageStore::new(PAGE);
    let t0 = Instant::now();
    for _ in 0..iters {
        let image = checkpoint(&store, w).unwrap();
        let replica = restore(&dst, &image).unwrap();
        dst.drop_world(replica).unwrap();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Mean seconds per loopback-TCP rfork (checkpoint + framed RPC +
/// remote restore + acked reply).
fn rfork_loopback(pages: u64, iters: usize) -> f64 {
    let (store, w) = origin(pages);
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), RetryPolicy::default(), Registry::disabled());
    let t0 = Instant::now();
    for _ in 0..iters {
        let image = checkpoint(&store, w).unwrap();
        let replica = conn.call_ack(&Request::Rfork { image }).unwrap();
        conn.call_ack(&Request::Discard { world: replica }).unwrap();
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    node.shutdown();
    per
}

/// Full-image vs sibling-delta checkpoint sizes for a world of `pages`
/// pages whose sibling differs in `dirty` of them.
fn delta_vs_full(pages: u64, dirty: u64) -> (usize, usize) {
    let (store, base) = origin(pages);
    // Ship the base once; the pinned replica is the delta target.
    let dst = PageStore::new(PAGE);
    let full = checkpoint(&store, base).unwrap();
    let base_there = restore(&dst, &full).unwrap();
    // A sibling world: same heritage, a few pages of drift.
    let sibling = store.fork_world(base).unwrap();
    for vpn in 0..dirty {
        store.write(sibling, vpn, 0, &[0xEE; PAGE]).unwrap();
    }
    let delta = checkpoint_delta(&store, sibling, base, base_there.raw()).unwrap();
    (full.len(), delta.len())
}

fn main() {
    let mut out = "BENCH_net.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out = arg;
        }
    }
    let (codec_frames, rfork_pages, rfork_iters, delta_pages, delta_dirty) = if smoke {
        (2_000, 18, 20, 64, 3)
    } else {
        (50_000, 18, 200, 256, 8)
    };

    let (enc_small, dec_small) = codec_throughput(codec_frames, 64);
    let (enc_large, dec_large) = codec_throughput(codec_frames / 10, 72 * 1024);
    eprintln!("codec   64 B payload: encode {enc_small:.0} MB/s, decode {dec_small:.0} MB/s");
    eprintln!("codec  72 KB payload: encode {enc_large:.0} MB/s, decode {dec_large:.0} MB/s");

    let large = Frame::new(2, 7, vec![0xA5u8; 72 * 1024]).encode();
    assert_eq!(crc32(&large), crc32_bytewise(&large), "oracle disagrees");
    let crc_mb = crc_throughput(codec_frames / 10, &large, crc32);
    let oracle_mb = crc_throughput(codec_frames / 10, &large, crc32_bytewise);
    let codec_over_oracle = enc_large.min(dec_large) / oracle_mb;
    eprintln!(
        "crc32 {crc_mb:.0} MB/s, bytewise oracle {oracle_mb:.0} MB/s; \
         large codec = {codec_over_oracle:.2} x oracle"
    );

    // ~70 KB process, the paper's §3.4 workload.
    let local = rfork_in_process(rfork_pages, rfork_iters);
    let wire = rfork_loopback(rfork_pages, rfork_iters);
    eprintln!(
        "rfork ({rfork_pages} pages) in-process: {:.1} us",
        local * 1e6
    );
    eprintln!(
        "rfork ({rfork_pages} pages) loopback:   {:.1} us",
        wire * 1e6
    );

    let (full_bytes, delta_bytes) = delta_vs_full(delta_pages, delta_dirty);
    let ratio = delta_bytes as f64 / full_bytes as f64;
    eprintln!(
        "sibling rfork: full {full_bytes} B, delta {delta_bytes} B ({:.1}% of full)",
        ratio * 100.0
    );
    assert!(
        ratio < 0.25,
        "delta rfork must ship < 25% of the full image; got {:.1}%",
        ratio * 100.0
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"net\",\n",
            "  \"unix_time\": {unix_time},\n",
            "  \"effective_cores\": {cores},\n",
            "  \"smoke\": {smoke},\n",
            "  \"config\": {{\"codec_frames\": {codec_frames}, ",
            "\"rfork_pages\": {rfork_pages}, \"rfork_iters\": {rfork_iters}, ",
            "\"delta_pages\": {delta_pages}, \"delta_dirty\": {delta_dirty}, ",
            "\"page_size\": {page}}},\n",
            "  \"frame_codec\": {{\n",
            "    \"encode_small_mb_per_sec\": {enc_small:.1},\n",
            "    \"decode_small_mb_per_sec\": {dec_small:.1},\n",
            "    \"encode_large_mb_per_sec\": {enc_large:.1},\n",
            "    \"decode_large_mb_per_sec\": {dec_large:.1}\n",
            "  }},\n",
            "  \"crc\": {{\n",
            "    \"crc32_mb_per_sec\": {crc_mb:.1},\n",
            "    \"bytewise_oracle_mb_per_sec\": {oracle_mb:.1},\n",
            "    \"large_codec_over_oracle\": {codec_over_oracle:.2}\n",
            "  }},\n",
            "  \"rfork_e2e\": {{\n",
            "    \"in_process_us\": {local_us:.2},\n",
            "    \"loopback_tcp_us\": {wire_us:.2},\n",
            "    \"wire_overhead_factor\": {overhead:.2}\n",
            "  }},\n",
            "  \"delta_checkpoint\": {{\n",
            "    \"full_image_bytes\": {full_bytes},\n",
            "    \"sibling_delta_bytes\": {delta_bytes},\n",
            "    \"delta_over_full\": {ratio:.4}\n",
            "  }},\n",
            "  \"note\": \"loopback TCP includes framing, one CRC pass per side, ",
            "one write and one read system call per frame that fits the ",
            "connection's 8 KiB read buffer (more reads for a larger frame), two ",
            "thread wake-ups and the remote restore; large_codec_over_oracle is ",
            "min(encode, decode) large MB/s over the byte-at-a-time CRC timed in ",
            "the same run and must stay >= 2; the delta ratio is the bytes a ",
            "sibling-world rfork ships relative to a full image\"\n",
            "}}\n",
        ),
        unix_time = unix_time,
        cores = cores,
        smoke = smoke,
        codec_frames = codec_frames,
        rfork_pages = rfork_pages,
        rfork_iters = rfork_iters,
        delta_pages = delta_pages,
        delta_dirty = delta_dirty,
        page = PAGE,
        enc_small = enc_small,
        dec_small = dec_small,
        enc_large = enc_large,
        dec_large = dec_large,
        crc_mb = crc_mb,
        oracle_mb = oracle_mb,
        codec_over_oracle = codec_over_oracle,
        local_us = local * 1e6,
        wire_us = wire * 1e6,
        overhead = wire / local.max(1e-12),
        full_bytes = full_bytes,
        delta_bytes = delta_bytes,
        ratio = ratio,
    );
    std::fs::write(&out, &json).expect("write results file");
    println!("wrote {out}");
    if codec_over_oracle < 2.0 {
        eprintln!(
            "error: large-frame codec moves {codec_over_oracle:.2} x the bytewise CRC oracle; \
             it must stay >= 2 x"
        );
        std::process::exit(1);
    }
}
