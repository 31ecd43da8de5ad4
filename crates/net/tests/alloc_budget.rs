//! The copies stay gone: a counting global allocator watches one 1 MiB
//! `Rfork` cross the loopback wire and a lying length field hit the
//! reader. Measured by this test (release build), client and server in
//! one process, before and after the copy-free framing rewrite:
//!
//! | caller's image + all bytes both sides allocate, ÷ image | before | after |
//! |---|---|---|
//! | one 1 MiB `Rfork`, `Conn` → `NetNode`                   | 8.04 × | 4.04 × |
//! | reserved for a `MAX_PAYLOAD` claim that delivers 10 B   | 64 MiB | 4 MiB  |
//!
//! (`Tcp::ship_image` added a ninth copy with its `to_vec`; `call_rfork`
//! measures 4.01 ×.) What remains is the caller's image, one frame buffer
//! per side, and the receiving store's own page frames.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use worlds_net::{read_frame, Conn, Frame, NetNode, Request, RetryPolicy, MAX_PAYLOAD};
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
