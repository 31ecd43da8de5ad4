//! End-to-end loopback tests: real sockets, real retries, real faults.

use std::time::Duration;
use worlds_net::{
    nack, read_frame, write_frame, Conn, FaultKind, FaultProxy, FaultSchedule, Frame, NetNode,
    Pool, Reply, Request, RetryPolicy,
};
use worlds_obs::Registry;
use worlds_pagestore::{checkpoint, checkpoint_delta, PageStore, WorldId};

const PAGE: usize = 64;

fn fast() -> RetryPolicy {
    RetryPolicy::fast()
}

#[test]
fn ping_and_rfork_round_trip() {
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), fast(), Registry::disabled());
    assert_eq!(conn.call_ack(&Request::Ping).unwrap(), 0);

    let local = PageStore::new(PAGE);
    let w = local.create_world();
    for vpn in 0..8 {
        local.write(w, vpn, 0, &[vpn as u8 + 1]).unwrap();
    }
    let image = checkpoint(&local, w).unwrap();
    let remote = WorldId::from_raw(conn.call_ack(&Request::Rfork { image }).unwrap());
    for vpn in 0..8 {
        assert_eq!(
            node.store().read_vec(remote, vpn, 0, 1).unwrap(),
            vec![vpn as u8 + 1]
        );
    }
    node.shutdown();
}

#[test]
fn delta_rfork_ships_against_restored_base() {
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), fast(), Registry::disabled());

    let local = PageStore::new(PAGE);
    let base = local.create_world();
    for vpn in 0..20 {
        local.write(base, vpn, 0, &[7; PAGE]).unwrap();
    }
    // Ship the base in full, then a sibling as a delta against it.
    let full = checkpoint(&local, base).unwrap();
    let base_there = conn
        .call_ack(&Request::Rfork {
            image: full.clone(),
        })
        .unwrap();

    let child = local.fork_world(base).unwrap();
    local.write(child, 3, 0, b"dirty").unwrap();
    let delta = checkpoint_delta(&local, child, base, base_there).unwrap();
    assert!(
        delta.len() * 4 < full.len(),
        "delta ({}) should be far smaller than full ({})",
        delta.len(),
        full.len()
    );
    let child_there = WorldId::from_raw(conn.call_ack(&Request::Rfork { image: delta }).unwrap());
    assert_eq!(
        node.store().read_vec(child_there, 3, 0, 5).unwrap(),
        b"dirty"
    );
    assert_eq!(
        node.store().read_vec(child_there, 9, 0, 1).unwrap(),
        vec![7]
    );
    node.shutdown();
}

#[test]
fn content_rfork_ships_refs_for_pages_the_receiver_holds() {
    let server_store = PageStore::new(PAGE);
    server_store.set_dedupe(true);
    let node = NetNode::serve(1, server_store, Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), fast(), Registry::disabled());

    let local = PageStore::new(PAGE);
    let base = local.create_world();
    for vpn in 0..20 {
        local.write(base, vpn, 0, &[vpn as u8; PAGE]).unwrap();
    }
    let base_there = conn
        .call_ack(&Request::Rfork {
            image: checkpoint(&local, base).unwrap(),
        })
        .unwrap();

    // The child rewrites page 3 to bytes nobody has, and page 4 to bytes
    // the receiver *already holds* (base page 5's contents — restored
    // full-page writes sealed them into the receiver's index).
    let child = local.fork_world(base).unwrap();
    local.write(child, 3, 0, &[99; PAGE]).unwrap();
    local.write(child, 4, 0, &[5; PAGE]).unwrap();

    let manifest = worlds_pagestore::delta_manifest(&local, child, base).unwrap();
    let hashes: Vec<u64> = manifest.iter().map(|&(_, h)| h).collect();
    let present = conn.call_present(hashes).unwrap();
    assert_eq!(present.len(), manifest.len());
    assert!(
        present.iter().any(|&p| p),
        "the receiver's index must recognise the duplicated page"
    );

    let inline = checkpoint_delta(&local, child, base, base_there).unwrap();
    let refs = worlds_pagestore::checkpoint_content(&local, child, base_there, &manifest, &present)
        .unwrap();
    assert!(
        refs.len() < inline.len(),
        "content delta ({}) must undercut the plain delta ({})",
        refs.len(),
        inline.len()
    );

    let child_there = WorldId::from_raw(conn.call_ack(&Request::Rfork { image: refs }).unwrap());
    assert_eq!(
        node.store().read_vec(child_there, 3, 0, PAGE).unwrap(),
        vec![99; PAGE]
    );
    assert_eq!(
        node.store().read_vec(child_there, 4, 0, PAGE).unwrap(),
        vec![5; PAGE]
    );
    node.shutdown();
}

#[test]
fn commit_back_and_discard_apply_to_the_right_worlds() {
    let store = PageStore::new(PAGE);
    let base = store.create_world();
    store.write(base, 0, 0, b"old").unwrap();
    let doomed = store.create_world();
    // The server shares the driver's store, as the origin node does.
    let node = NetNode::serve(0, store.clone(), Registry::disabled()).unwrap();
    let mut conn = Conn::new(0, node.addr(), fast(), Registry::disabled());

    conn.call_ack(&Request::CommitBack {
        base: base.raw(),
        pages: vec![(0, b"new".to_vec()), (5, vec![9; PAGE])],
    })
    .unwrap();
    assert_eq!(store.read_vec(base, 0, 0, 3).unwrap(), b"new");
    assert_eq!(store.read_vec(base, 5, 0, PAGE).unwrap(), vec![9; PAGE]);

    conn.call_ack(&Request::Discard {
        world: doomed.raw(),
    })
    .unwrap();
    assert!(store.read_vec(doomed, 0, 0, 1).is_err(), "world dropped");
    node.shutdown();
}

/// `CommitBack` is all or nothing: a frame whose second page the store
/// refuses must not leave its first page behind in the live base world.
#[test]
fn nacked_commit_back_leaves_the_base_untouched() {
    let store = PageStore::new(PAGE);
    let base = store.create_world();
    store.write(base, 0, 0, &[1; PAGE]).unwrap();
    store.write(base, 1, 0, &[2; PAGE]).unwrap();
    let node = NetNode::serve(0, store.clone(), Registry::disabled()).unwrap();
    let mut conn = Conn::new(0, node.addr(), fast(), Registry::disabled());
    let (worlds, frames) = (store.world_count(), store.live_frames());

    let err = conn
        .call_ack(&Request::CommitBack {
            base: base.raw(),
            pages: vec![
                (0, vec![9; PAGE]),
                (1, vec![9; PAGE + 1]),
                (2, vec![9; PAGE]),
            ],
        })
        .unwrap_err();
    assert_eq!(err.nack_code(), Some(nack::STORE), "{err}");
    assert_eq!(store.read_vec(base, 0, 0, PAGE).unwrap(), vec![1; PAGE]);
    assert_eq!(store.read_vec(base, 1, 0, PAGE).unwrap(), vec![2; PAGE]);
    assert_eq!(store.read_vec(base, 2, 0, PAGE).unwrap(), vec![0; PAGE]);
    assert_eq!(store.world_count(), worlds, "the staging fork is gone");
    assert_eq!(store.live_frames(), frames, "and so are its frames");
    store.verify_refcounts().unwrap();
    // The refusal is an answer, not a broken stream.
    assert_eq!(conn.call_ack(&Request::Ping).unwrap(), 0);

    // The same pages, all acceptable, commit as one.
    conn.call_ack(&Request::CommitBack {
        base: base.raw(),
        pages: vec![(0, vec![9; PAGE]), (2, vec![9; PAGE])],
    })
    .unwrap();
    assert_eq!(store.read_vec(base, 0, 0, PAGE).unwrap(), vec![9; PAGE]);
    assert_eq!(store.read_vec(base, 2, 0, PAGE).unwrap(), vec![9; PAGE]);
    assert_eq!(store.world_count(), worlds);
    node.shutdown();
}

#[test]
fn nacks_surface_without_retries() {
    let (obs, _ring) = Registry::with_ring(64);
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), fast(), obs.clone());
    // Discarding a world that does not exist is a Nack, not a retry loop.
    let err = conn
        .call_ack(&Request::Discard { world: 999_999 })
        .unwrap_err();
    assert!(matches!(err, worlds_net::NetError::Nack { .. }), "{err}");
    let stats = obs.stats().unwrap();
    assert_eq!(stats.net.retries.get(), 0, "nack must not be retried");
    node.shutdown();
}

/// A record count no image could back must be refused before `restore`
/// builds anything: 2^61 records of 8 + 64 bytes wrap to a length of 0,
/// which once let a bare header through to an out-of-range slice on the
/// serving thread.
#[test]
fn hostile_rfork_image_is_nacked_and_the_connection_survives() {
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let mut conn = Conn::new(1, node.addr(), fast(), Registry::disabled());
    // A well-formed header (taken from a real image) with a hostile count.
    let empty = PageStore::new(PAGE);
    let mut image = checkpoint(&empty, empty.create_world()).unwrap();
    image[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
    let err = conn.call_ack(&Request::Rfork { image }).unwrap_err();
    assert_eq!(err.nack_code(), Some(nack::BAD_IMAGE), "{err}");
    assert_eq!(node.store().world_count(), 0, "no half-built world");
    assert_eq!(conn.call_ack(&Request::Ping).unwrap(), 0);
    node.shutdown();
}

/// Kind 5 once carried a predicated `ipc::Message`; predicates are now
/// simulated, and the kind is retired, never reused. This is the frame
/// an older peer sent (it was the wire fixture's `predicated_send` line):
/// a message from pid 3 to pid 9, predicate {must 1, 2; cant 7}, body
/// "speculative hello", trace (5, 6), under correlation id 5.
const RETIRED_PREDICATED_SEND: &str =
    "4d574e46010505000000000000005e0000004d0000000000000003000000\
     00000000090000000000000002000000010000000000000002000000000000000100000007000000000000\
     001100000073706563756c61746976652068656c6c6f0105000000000000000600000000000000ba97a8dd";

/// A peer that still sends the retired kind gets the unknown-kind Nack,
/// and the same connection goes on answering.
#[test]
fn a_retired_predicated_send_is_nacked_and_the_connection_survives() {
    let node = NetNode::serve(2, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let wire: Vec<u8> = (0..RETIRED_PREDICATED_SEND.len() / 2)
        .map(|i| u8::from_str_radix(&RETIRED_PREDICATED_SEND[2 * i..2 * i + 2], 16).unwrap())
        .collect();
    // A well-formed frame: the refusal comes from the RPC layer.
    assert_eq!(Frame::decode(&wire).unwrap().kind, 5);

    let mut s = std::net::TcpStream::connect(node.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    std::io::Write::write_all(&mut s, &wire).unwrap();
    let (reply, _) = read_frame(&mut s).unwrap();
    assert_eq!(reply.corr, 5);
    match Reply::decode(reply.kind, &reply.payload).unwrap() {
        Reply::Nack { code, .. } => assert_eq!(code, nack::BAD_REQUEST),
        other => panic!("kind 5 must be nacked, got {other:?}"),
    }

    write_frame(&mut s, &Frame::new(Request::Ping.kind(), 6, Vec::new())).unwrap();
    let (pong, _) = read_frame(&mut s).unwrap();
    assert_eq!(pong.corr, 6);
    assert_eq!(
        Reply::decode(pong.kind, &pong.payload).unwrap(),
        Reply::Ack { world: 0 }
    );
    node.shutdown();
}

/// The tentpole idempotency guarantee: a request delivered twice under
/// one correlation id is applied once. Raw frames prove it at the
/// protocol level, below the client's own retry logic. `Rfork` is the
/// sharpest probe — a double-apply would mint a second world, which
/// `world_count` catches; page writes alone are idempotent by value.
#[test]
fn retransmitted_frames_never_double_apply() {
    let store = PageStore::new(PAGE);
    let base = store.create_world();
    store.write(base, 0, 0, &[1]).unwrap();
    let node = NetNode::serve(0, store.clone(), Registry::disabled()).unwrap();

    let local = PageStore::new(PAGE);
    let w = local.create_world();
    local.write(w, 2, 0, b"shipped").unwrap();
    let rfork = Request::Rfork {
        image: checkpoint(&local, w).unwrap(),
    };
    let rfork_frame = Frame::new(rfork.kind(), 0xC0FFEE, rfork.encode_payload());

    let mut s = std::net::TcpStream::connect(node.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let before = store.world_count();
    write_frame(&mut s, &rfork_frame).unwrap();
    let (first, _) = read_frame(&mut s).unwrap();
    // Deliver the identical frame again — as a timed-out client would.
    write_frame(&mut s, &rfork_frame).unwrap();
    let (second, _) = read_frame(&mut s).unwrap();
    assert_eq!(first, second, "ledger replays the recorded reply");
    assert_eq!(
        store.world_count(),
        before + 1,
        "one rfork, one world, however many deliveries"
    );

    // Same discipline for CommitBack: identical replies, pages correct.
    let commit = Request::CommitBack {
        base: base.raw(),
        pages: vec![(0, vec![42; PAGE]), (7, vec![7; PAGE])],
    };
    let commit_frame = Frame::new(commit.kind(), 0xBEEF, commit.encode_payload());
    write_frame(&mut s, &commit_frame).unwrap();
    let (c1, _) = read_frame(&mut s).unwrap();
    write_frame(&mut s, &commit_frame).unwrap();
    let (c2, _) = read_frame(&mut s).unwrap();
    assert_eq!(c1, c2);
    assert_eq!(
        Reply::decode(c1.kind, &c1.payload).unwrap(),
        Reply::Ack { world: base.raw() }
    );
    assert_eq!(store.read_vec(base, 0, 0, 1).unwrap(), vec![42]);

    // Control: a *different* corr-id really does fork a second world.
    let fresh = Frame::new(rfork.kind(), 0xC0FFEF, rfork.encode_payload());
    write_frame(&mut s, &fresh).unwrap();
    let _ = read_frame(&mut s).unwrap();
    assert_eq!(store.world_count(), before + 2);
    node.shutdown();
}

/// The client's own retry path over a faulty wire: every fault kind the
/// proxy can inject ends in success after deterministic retries, and the
/// `DropReply` case proves end-to-end idempotency (the op applied, the
/// reply vanished, the retry replayed it).
#[test]
fn client_retries_through_every_fault_kind() {
    for kind in [
        FaultKind::Drop,
        FaultKind::Truncate,
        FaultKind::Reset,
        FaultKind::DropReply,
    ] {
        let store = PageStore::new(PAGE);
        let node = NetNode::serve(1, store.clone(), Registry::disabled()).unwrap();
        let proxy = FaultProxy::spawn(
            node.addr(),
            FaultSchedule::every_with(1, kind),
            Registry::disabled(),
        )
        .unwrap();
        // every(1) faults *every first delivery*, but only first
        // deliveries: each op faults once and its retry passes.
        let (obs, _ring) = Registry::with_ring(256);
        let mut conn = Conn::new(1, proxy.addr(), fast(), obs.clone());

        let local = PageStore::new(PAGE);
        let w = local.create_world();
        local.write(w, 0, 0, b"through the storm").unwrap();
        let image = checkpoint(&local, w).unwrap();
        let remote = WorldId::from_raw(conn.call_ack(&Request::Rfork { image }).unwrap());
        assert_eq!(
            store.read_vec(remote, 0, 0, 17).unwrap(),
            b"through the storm",
            "fault {kind:?}"
        );
        assert_eq!(
            store.world_count(),
            1,
            "fault {kind:?} must not double-apply the rfork"
        );

        let stats = obs.stats().unwrap();
        assert!(
            stats.net.retries.get() >= 1,
            "fault {kind:?} should force at least one retry"
        );
        assert_eq!(proxy.faults_injected(), 1, "fault {kind:?}");
        proxy.shutdown();
        node.shutdown();
    }
}

/// Timeouts are observed as timeouts: a dropped request burns the full
/// deadline and emits `NetTimeout` before the retry.
#[test]
fn dropped_frames_surface_as_timeouts() {
    let node = NetNode::serve(3, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let proxy = FaultProxy::spawn(
        node.addr(),
        FaultSchedule::every_with(1, FaultKind::Drop),
        Registry::disabled(),
    )
    .unwrap();
    let (obs, _ring) = Registry::with_ring(64);
    let mut conn = Conn::new(3, proxy.addr(), fast(), obs.clone());
    assert_eq!(conn.call_ack(&Request::Ping).unwrap(), 0);
    let stats = obs.stats().unwrap();
    assert_eq!(stats.net.timeouts.get(), 1);
    assert_eq!(stats.net.retries.get(), 1);
    assert!(
        stats.net_rtt.snapshot().count >= 1,
        "successful attempt records an RTT"
    );
    proxy.shutdown();
    node.shutdown();
}

/// A pool round-trips to several nodes and keeps per-node attribution.
#[test]
fn pool_tracks_nodes_independently() {
    let a = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let b = NetNode::serve(2, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let (obs, ring) = Registry::with_ring(64);
    let mut pool = Pool::new(fast(), obs);
    pool.register(1, a.addr());
    pool.register(2, b.addr());
    pool.call_ack(1, &Request::Ping).unwrap();
    pool.call_ack(2, &Request::Ping).unwrap();
    pool.call_ack(2, &Request::Ping).unwrap();
    let to_node_2 = ring
        .events()
        .iter()
        .filter(|e| matches!(e.kind, worlds_obs::EventKind::NetSend { node: 2, .. }))
        .count();
    assert_eq!(to_node_2, 2);
    assert!(pool.call(3, &Request::Ping).is_err(), "unregistered node");
    a.shutdown();
    b.shutdown();
}

/// A pipelined burst through a proxy that drops its 2nd frame's first
/// delivery: the 1st and 3rd apply on the first attempt, only the 2nd
/// is resent, each image restores exactly one world, and slot `i` of
/// the answer is request `i`'s reply although the 2nd applied last.
#[test]
fn a_burst_resends_only_the_dropped_frame() {
    let store = PageStore::new(PAGE);
    let node = NetNode::serve(1, store.clone(), Registry::disabled()).unwrap();
    let proxy = FaultProxy::spawn(
        node.addr(),
        FaultSchedule::once(1, FaultKind::Drop),
        Registry::disabled(),
    )
    .unwrap();
    let (obs, ring) = Registry::with_ring(256);
    let mut conn = Conn::new(1, proxy.addr(), fast(), obs.clone());

    let local = PageStore::new(PAGE);
    let w = local.create_world();
    local.write(w, 4, 0, b"three of these").unwrap();
    let image = checkpoint(&local, w).unwrap();
    let worlds: Vec<u64> = conn
        .call_rforks(&[&image, &image, &image])
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    assert_eq!(store.world_count(), 3, "three images, three worlds");
    for &world in &worlds {
        assert_eq!(
            store.read_vec(WorldId::from_raw(world), 4, 0, 14).unwrap(),
            b"three of these"
        );
    }
    // World ids are minted in apply order: the 3rd frame applied before
    // the resent 2nd, yet each reply sits in its request's slot.
    assert!(worlds[0] < worlds[2] && worlds[2] < worlds[1], "{worlds:?}");
    assert_eq!(proxy.faults_injected(), 1);
    let sends = ring
        .events()
        .iter()
        .filter(|e| matches!(e.kind, worlds_obs::EventKind::NetSend { .. }))
        .count();
    assert_eq!(sends, 4, "three frames, then only the dropped one again");
    let stats = obs.stats().unwrap();
    assert_eq!(stats.net.timeouts.get(), 1);
    assert_eq!(stats.net.retries.get(), 1);
    proxy.shutdown();
    node.shutdown();
}

/// A refusal inside a burst is that slot's answer: the other discards
/// of the burst still apply.
#[test]
fn a_discard_burst_nacks_only_the_missing_world() {
    let store = PageStore::new(PAGE);
    let a = store.create_world();
    let b = store.create_world();
    let node = NetNode::serve(2, store.clone(), Registry::disabled()).unwrap();
    let mut conn = Conn::new(2, node.addr(), fast(), Registry::disabled());
    let replies = conn.call_many(&[
        Request::Discard { world: a.raw() },
        Request::Discard { world: 999_999 },
        Request::Discard { world: b.raw() },
    ]);
    assert_eq!(replies.len(), 3);
    assert_eq!(replies[0].as_ref().unwrap(), &a.raw());
    assert_eq!(
        replies[1].as_ref().unwrap_err().nack_code(),
        Some(nack::NO_SUCH_WORLD)
    );
    assert_eq!(replies[2].as_ref().unwrap(), &b.raw());
    assert_eq!(store.world_count(), 0, "both live worlds were discarded");
    node.shutdown();
}
