//! An `Rfork` image is read off the socket straight into page buffers of
//! the receiving store. These tests hold that path to the byte path's
//! contract: a frame cut or corrupted mid-image leaves the receiver as it
//! was — no world, no frame, its buffers back in the pool — and a
//! malformed image gets the very Nack `restore` gives the same bytes,
//! on a connection that goes on answering.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;
use worlds_net::{
    nack, Conn, FaultKind, FaultProxy, FaultSchedule, Frame, NetError, NetNode, Request,
    RetryPolicy,
};
use worlds_obs::Registry;
use worlds_pagestore::{checkpoint, describe, restore, PageStore, WorldId};

const PAGE: usize = 4096;
const PAGES: u64 = 64;

/// A world of `PAGES` distinct pages and its store.
fn origin() -> (PageStore, WorldId) {
    let store = PageStore::new(PAGE);
    let world = store.create_world();
    for vpn in 0..PAGES {
        let page: Vec<u8> = (0..PAGE).map(|i| (i as u64 ^ (vpn * 31)) as u8).collect();
        store.write(world, vpn, 0, &page).unwrap();
    }
    (store, world)
}

/// Every page of `there` in `store` reads as `world`'s in `origin`.
fn assert_same_pages(origin: &PageStore, world: WorldId, store: &PageStore, there: u64) {
    let there = WorldId::from_raw(there);
    assert_eq!(
        store.mapped_vpns(there).unwrap(),
        origin.mapped_vpns(world).unwrap()
    );
    for vpn in 0..PAGES {
        assert_eq!(
            store.read_vec(there, vpn, 0, PAGE).unwrap(),
            origin.read_vec(world, vpn, 0, PAGE).unwrap(),
            "vpn {vpn}"
        );
    }
}

/// The receiver's world count and live frames, after checking its
/// reference invariant.
fn footprint(store: &PageStore) -> (usize, usize) {
    store.verify_refcounts().unwrap();
    (store.world_count(), store.live_frames())
}

/// Send `wire` on a fresh raw connection, stop writing, and wait for the
/// node to close it: by then the node has dropped everything the frame
/// made it hold. Returns what the node answered first, if anything.
fn send_and_wait_for_close(node: &NetNode, wire: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(node.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(wire).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    s.read_to_end(&mut answer).unwrap();
    answer
}

#[test]
fn a_frame_cut_or_flipped_mid_image_leaves_the_receiver_as_it_was() {
    let (local, world) = origin();
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let store = node.store().clone();
    let baseline = footprint(&store);
    let wire = Request::Rfork {
        image: checkpoint(&local, world).unwrap(),
    }
    .encode_frame(0xF00D);
    let mid = wire.len() / 2;

    // Cut in the middle of a page, then the sender goes away.
    assert!(send_and_wait_for_close(&node, &wire[..mid]).is_empty());
    assert_eq!(footprint(&store), baseline, "cut mid-image");
    // Whole, with one bit flipped in the middle of a page: the CRC fails
    // and nothing is applied.
    let mut flipped = wire.clone();
    flipped[mid] ^= 0x10;
    assert!(send_and_wait_for_close(&node, &flipped).is_empty());
    assert_eq!(footprint(&store), baseline, "bit flipped mid-image");

    // The buffers both reads took went back to the pool: the next image
    // is read into them, and restores the origin's exact bytes.
    let recycled = store.stats().frames_recycled;
    let mut conn = Conn::new(1, node.addr(), RetryPolicy::fast(), Registry::disabled());
    let there = conn.call_rfork(&describe(&local, world).unwrap()).unwrap();
    assert_eq!(store.stats().frames_recycled - recycled, PAGES);
    assert_same_pages(&local, world, &store, there);
    conn.call_ack(&Request::Discard { world: there }).unwrap();
    assert_eq!(footprint(&store).0, baseline.0);
    node.shutdown();
}

#[test]
fn a_streamed_image_whose_reply_is_cut_is_retried_and_applied_once() {
    let (local, world) = origin();
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let store = node.store().clone();
    let baseline = footprint(&store);
    // The proxy delivers the image, then truncates the node's reply; the
    // client retries under the same corr-id and the ledger replays it.
    let proxy = FaultProxy::spawn(
        node.addr(),
        FaultSchedule::once(0, FaultKind::Truncate),
        Registry::disabled(),
    )
    .unwrap();
    let (obs, _ring) = Registry::with_ring(256);
    let mut conn = Conn::new(1, proxy.addr(), RetryPolicy::fast(), obs.clone());
    let image = describe(&local, world).unwrap();
    let there = conn.call_rfork(&image).unwrap();
    assert_eq!(proxy.faults_injected(), 1);
    assert!(obs.stats().unwrap().net.retries.get() >= 1);
    assert_same_pages(&local, world, &store, there);
    assert_eq!(store.world_count(), baseline.0 + 1, "applied once");
    conn.call_ack(&Request::Discard { world: there }).unwrap();
    assert_eq!(footprint(&store), (baseline.0, baseline.1));
    proxy.shutdown();
    node.shutdown();
}

/// Send `image` as an `Rfork` on `conn` to `node`: it must be refused with
/// the `BAD_IMAGE` Nack whose detail is `restore`'s error for the same
/// bytes, apply nothing, and leave the connection answering pings.
fn refused_like_the_byte_path(node: &NetNode, conn: &mut Conn, image: Vec<u8>, what: &str) {
    let store = node.store();
    let baseline = footprint(store);
    let expected = restore(&PageStore::new(store.page_size()), &image).unwrap_err();
    match conn.call_ack(&Request::Rfork { image }) {
        Err(NetError::Nack { code, detail }) => {
            assert_eq!(code, nack::BAD_IMAGE, "{what}");
            assert_eq!(
                detail,
                format!("node {}: {expected}", node.node_id()),
                "{what}"
            );
        }
        other => panic!("{what}: expected a BAD_IMAGE nack, got {other:?}"),
    }
    assert_eq!(footprint(store), baseline, "{what}");
    assert_eq!(conn.call_ack(&Request::Ping).unwrap(), 0, "{what}");
}

#[test]
fn malformed_images_get_the_byte_paths_nack_and_the_connection_answers_on() {
    let (local, world) = origin();
    let node = NetNode::serve(3, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(3, node.addr(), RetryPolicy::fast(), Registry::disabled());
    let image = checkpoint(&local, world).unwrap();
    let record = 9 + PAGE;

    // Streamed (its header promises inline records that fill it exactly),
    // then refused at the record of kind 1.
    let mut kind_one = image.clone();
    kind_one[32 + 5 * record + 8] = 1;
    refused_like_the_byte_path(&node, &mut conn, kind_one, "a record of kind 1");

    // A page size other than the node's: read as bytes.
    let small = PageStore::new(PAGE / 2);
    let w = small.create_world();
    small.write(w, 0, 0, b"half a page").unwrap();
    let other_size = checkpoint(&small, w).unwrap();
    refused_like_the_byte_path(&node, &mut conn, other_size, "a page-size mismatch");

    // A record count the payload's length does not back, either way.
    for (count, what) in [
        (PAGES + 1, "one record short"),
        (PAGES - 1, "one record over"),
    ] {
        let mut lying = image.clone();
        lying[16..24].copy_from_slice(&count.to_le_bytes());
        refused_like_the_byte_path(&node, &mut conn, lying, what);
    }

    // And a good image still streams in whole on the same connection.
    let there = conn.call_rfork(&image).unwrap();
    assert_same_pages(&local, world, node.store(), there);
    node.shutdown();
}

/// The frame the client gathers from a description is, byte for byte, the
/// frame the encoder writes for the same image.
#[test]
fn a_gathered_frame_is_the_encoded_frame() {
    let (local, world) = origin();
    let image = describe(&local, world).unwrap();
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let capture = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let (frame, size) = worlds_net::read_frame(&mut s).unwrap();
        // Answer it, so the client returns.
        let ack = worlds_net::Reply::Ack { world: 1 }.encode_frame(frame.corr);
        s.write_all(&ack).unwrap();
        (frame, size)
    });
    let mut conn = Conn::new(9, addr, RetryPolicy::fast(), Registry::disabled());
    assert_eq!(conn.call_rfork(&image).unwrap(), 1);
    let (frame, size) = capture.join().unwrap();
    let encoded = Request::Rfork {
        image: image.to_vec(),
    }
    .encode_frame(frame.corr);
    assert_eq!(size, encoded.len());
    assert_eq!(Frame::decode(&encoded).unwrap(), frame);
}
