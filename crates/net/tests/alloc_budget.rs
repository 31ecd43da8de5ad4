//! The copies stay gone: a counting global allocator watches 1 MiB
//! `Rfork`s cross the loopback wire and a lying length field hit the
//! reader. Measured by this test (release build), client and server in
//! one process, before and after the copy-free framing rewrite and then
//! the kept frame buffers:
//!
//! | bytes allocated, ÷ image                                  | before | copy-free | kept buffers |
//! |---|---|---|---|
//! | first 1 MiB `Rfork` on a `Conn`, with the caller's image   | 8.04 × | 4.04 ×    | 4.05 ×       |
//! | a later 1 MiB `Rfork` on the same `Conn`, image borrowed    |        | 3.02 ×    | 1.02 ×       |
//! | reserved for a `MAX_PAYLOAD` claim that delivers 10 B      | 64 MiB | 4 MiB     | 4 MiB        |
//!
//! The first rfork pays for the caller's image, one frame buffer per
//! side and the receiving store's page frames. Both sides keep their
//! frame buffers, so a later one pays for the page frames alone. A
//! connection that carried a frame past one read chunk (4 MiB) gives its
//! buffers back: about 1.1 MiB stays live after a 6 MiB rfork and its
//! discard, the store's recycled page buffers and bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use worlds_net::{read_frame, Conn, Frame, NetNode, Request, RetryPolicy, MAX_PAYLOAD, READ_CHUNK};
use worlds_obs::Registry;
use worlds_pagestore::{checkpoint, PageStore};

/// Bytes ever requested, live bytes now, and the live high-water mark.
static TOTAL: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    TOTAL.fetch_add(bytes, Ordering::Relaxed);
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
fn a_1mib_rfork_allocates_at_most_five_images_and_a_ping_under_1kib() {
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

    for borrowed in [false, true] {
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
        assert!(images <= 5.0, "{images:.2} x the image allocated");
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

#[test]
fn later_1mib_rforks_on_one_conn_allocate_only_the_stores_frames() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), RetryPolicy::default(), Registry::disabled());
    let image = image_of(&PageStore::new(PAGE), 256);
    let len = image.len();
    // The first rfork grows both sides' frame buffers to fit the image.
    conn.call_rfork(&image).unwrap();
    for n in 2..=6 {
        let (replica, total, _) = measure(|| conn.call_rfork(&image));
        replica.unwrap();
        // The receiving store's 256 new page frames are one image's worth;
        // everything else is small change.
        let images = total as f64 / len as f64;
        eprintln!("rfork {n}: {images:.3} x the image allocated");
        assert!(
            images <= 1.1,
            "rfork {n}: {images:.3} x the image allocated"
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
