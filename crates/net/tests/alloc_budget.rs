//! The copies stay gone: a counting global allocator watches 1 MiB
//! `Rfork`s cross the loopback wire and a lying length field hit the
//! reader. Measured by this test (release build), client and server in
//! one process, before and after the copy-free framing rewrite, the kept
//! frame buffers, and then the streamed image:
//!
//! | bytes allocated, ÷ image                                  | before | copy-free | kept buffers | streamed |
//! |---|---|---|---|---|
//! | first 1 MiB `Rfork` on a `Conn`, with the caller's image   | 8.04 × | 4.04 ×    | 4.05 ×       | 3.05 ×   |
//! | the same, the caller's image bytes borrowed                 |        |           |              | 2.02 ×   |
//! | a later 1 MiB `Rfork` on the same `Conn`, image borrowed    |        | 3.02 ×    | 1.02 ×       | 1.03 ×   |
//! | the same, the frames' buffers from the receiver's pool      |        |           |              | 0.03 ×   |
//! | largest single allocation of a later 1 MiB `Rfork`          |        |           | 1 MiB        | 8 KiB    |
//! | reserved for a `MAX_PAYLOAD` claim that delivers 10 B      | 64 MiB | 4 MiB     | 4 MiB        | 4 MiB    |
//!
//! The later rforks of the *streamed* column send the image as its
//! description; every fourth of them also grows the receiving store's
//! frame table by one 32 KiB chunk of 1024 slots.
//!
//! The first rfork pays for the caller's image, its encoded copy (an
//! owned `Request`, encoded whole) and the receiving store's page frames.
//! An image sent as its description ([`worlds_pagestore::ImageDesc`])
//! goes out gathered from the sender's frames and is read into the
//! frames the receiver restores it into, so neither side holds a
//! whole-image buffer: a later rfork allocates the receiving store's page
//! frames and small change, and nothing at all of its pages when the
//! store's recycle pool holds buffers freed by an earlier discard. A
//! connection that carried a frame past one read chunk (4 MiB) keeps no
//! buffer of that size: about 1.1 MiB stays live after a 6 MiB rfork and
//! its discard, the store's recycled page buffers and bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use worlds_net::{read_frame, Conn, Frame, NetNode, Request, RetryPolicy, MAX_PAYLOAD, READ_CHUNK};
use worlds_obs::Registry;
use worlds_pagestore::{checkpoint, describe, PageStore, WorldId};

/// Bytes ever requested, live bytes now, the live high-water mark, and
/// the largest single block asked for since the last reset.
static TOTAL: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    TOTAL.fetch_add(bytes, Ordering::Relaxed);
    LARGEST.fetch_max(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a move: the whole new block is freshly allocated.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide, so the tests here take turns.
static TURN: Mutex<()> = Mutex::new(());

/// `(total bytes requested, peak growth of live bytes)` while `f` ran.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let total = TOTAL.load(Ordering::Relaxed);
    let out = f();
    (
        out,
        TOTAL.load(Ordering::Relaxed) - total,
        PEAK.load(Ordering::Relaxed) - live,
    )
}

const PAGE: usize = 4096;

#[test]
fn a_first_1mib_rfork_allocates_the_callers_copies_and_frames_and_a_ping_under_1kib() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), RetryPolicy::default(), Registry::disabled());
    let local = PageStore::new(PAGE);
    let world = local.create_world();
    for vpn in 0..256 {
        local.write(world, vpn, 0, &[vpn as u8; PAGE]).unwrap();
    }
    // Connect, fill both read buffers, settle the server's reply ledger.
    for _ in 0..4 {
        conn.call_ack(&Request::Ping).unwrap();
    }

    // An owned request is encoded whole (one copy); borrowed bytes go out
    // where they lie. Either way the receiver allocates its frames.
    for (borrowed, most) in [(false, 3.1), (true, 2.1)] {
        let image = checkpoint(&local, world).unwrap();
        let len = image.len();
        assert!(len > 1 << 20);
        let (replica, total, _) = measure(|| {
            if borrowed {
                conn.call_rfork(&image)
            } else {
                conn.call_ack(&Request::Rfork { image })
            }
        });
        replica.unwrap();
        let images = (len + total) as f64 / len as f64;
        eprintln!("rfork (borrowed: {borrowed}): {images:.2} x the image allocated");
        assert!(images <= most, "{images:.2} x the image allocated");
    }

    let (reply, total, _) = measure(|| conn.call(&Request::Ping));
    reply.unwrap();
    eprintln!("ping: {total} B allocated");
    assert!(total < 1024, "a ping round trip allocated {total} B");
    node.shutdown();
}

#[test]
fn a_reader_never_reserves_more_than_it_received_plus_one_chunk() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Mirrors `READ_CHUNK` in frame.rs; error values and the like get a
    // page of slack.
    const CHUNK: usize = 4 << 20;
    const SLACK: usize = 4096;

    // The header claims MAX_PAYLOAD; ten bytes arrive, then EOF.
    let mut lying = Frame::new(2, 1, Vec::new()).encode();
    lying[14..18].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
    lying.truncate(18);
    lying.extend_from_slice(&[0xEE; 10]);
    let (result, _, peak) = measure(|| read_frame(&mut &lying[..]));
    assert!(result.is_err());
    assert!(
        peak <= CHUNK + SLACK,
        "10 bytes received, {peak} B reserved"
    );

    // A 10 MiB frame cut short: space follows the bytes, chunk by chunk.
    let big = Frame::new(2, 2, vec![0x5A; 10 << 20]).encode();
    for cut in [1 << 10, 1 << 20, (4 << 20) + 5, 9 << 20] {
        let (result, _, peak) = measure(|| read_frame(&mut &big[..cut]));
        assert!(result.is_err(), "cut at {cut}");
        assert!(
            peak <= cut + CHUNK + SLACK,
            "{cut} B received, {peak} B reserved"
        );
    }
    // Whole, it costs its own size and nothing more.
    let (result, _, peak) = measure(|| read_frame(&mut &big[..]));
    assert_eq!(result.unwrap().1, big.len());
    assert!(
        peak <= big.len() + SLACK,
        "{peak} B live for a {} B frame",
        big.len()
    );
}

/// Live bytes now, less `before` (zero if fewer are live).
fn live_since(before: usize) -> usize {
    LIVE.load(Ordering::Relaxed).saturating_sub(before)
}

/// A world of `pages` distinct pages, and its full image.
fn image_of(store: &PageStore, pages: u64) -> Vec<u8> {
    let world = store.create_world();
    for vpn in 0..pages {
        store
            .write(world, vpn, 0, &[vpn as u8 ^ 0x5A; PAGE])
            .unwrap();
    }
    checkpoint(store, world).unwrap()
}

/// No single allocation this large happens during a steady-state 1 MiB
/// rfork, on either side: nothing image-sized, nor a sizeable piece of
/// one.
const LARGE: usize = 64 << 10;

#[test]
fn a_streamed_1mib_rfork_allocates_only_the_stores_frames_and_no_large_block() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), RetryPolicy::default(), Registry::disabled());
    let local = PageStore::new(PAGE);
    let world = local.create_world();
    for vpn in 0..256 {
        local
            .write(world, vpn, 0, &[vpn as u8 ^ 0x5A; PAGE])
            .unwrap();
    }
    // Connect and settle both sides with a first rfork.
    let mut replica = conn.call_rfork(&describe(&local, world).unwrap()).unwrap();
    for pooled in [false, true] {
        let mut round = 0.0;
        for n in 2..=5 {
            if pooled {
                // The replica's frames go to the store's recycle pool.
                conn.call_ack(&Request::Discard { world: replica }).unwrap();
            }
            let image = describe(&local, world).unwrap();
            let (shipped, total, _) = measure(|| conn.call_rfork(&image));
            let largest = LARGEST.load(Ordering::Relaxed);
            replica = shipped.unwrap();
            let images = total as f64 / image.byte_len() as f64;
            round += images / 4.0;
            eprintln!(
                "rfork {n} (pooled frames: {pooled}): {images:.3} x the image allocated, \
                 largest block {largest} B"
            );
            assert!(largest < LARGE, "rfork {n}: a {largest} B allocation");
            let there = WorldId::from_raw(replica);
            assert_eq!(
                node.store().read_vec(there, 255, 0, 1).unwrap(),
                [255 ^ 0x5A]
            );
        }
        // The receiving store's 256 new page frames are one image's worth,
        // less the record headers; everything else is small change (the
        // frame table grows a 1024-slot chunk every fourth rfork). Taken
        // from the pool, the frames cost nothing.
        let most = if pooled { 0.05 } else { 1.05 };
        assert!(
            round <= most,
            "pooled frames: {pooled}: {round:.3} x the image allocated per rfork"
        );
    }
    node.shutdown();
}

#[test]
fn a_connection_that_carried_a_large_frame_keeps_at_most_one_chunk() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), RetryPolicy::default(), Registry::disabled());
    for _ in 0..4 {
        conn.call_ack(&Request::Ping).unwrap();
    }
    // 6 MiB of pages: a frame past one chunk on both sides of the wire.
    let image = image_of(&PageStore::new(PAGE), 1536);
    assert!(image.len() > READ_CHUNK);
    let live = LIVE.load(Ordering::Relaxed);
    let world = conn.call_rfork(&image).unwrap();
    // The node answers this only after it is done with the rfork's frame.
    conn.call_ack(&Request::Discard { world }).unwrap();
    let kept = live_since(live);
    eprintln!("kept after a {} B frame: {kept} B", image.len());
    // Keeping the frame's buffers would hold two frames' worth; what is
    // left is the store's recycled page buffers and bookkeeping.
    assert!(
        kept <= READ_CHUNK,
        "kept {kept} B after a {} B frame",
        image.len()
    );
    node.shutdown();
}
