//! The front door over real TCP: wire round trips, nack reasons in
//! client errors, retried/faulted delivery staying at-most-once, and
//! teardown after a tenant's connection dies mid-speculation.

use worlds_net::{
    nack, Conn, FaultKind, FaultProxy, FaultSchedule, NetError, Request, RetryPolicy,
};
use worlds_obs::Registry;
use worlds_pagestore::PageStore;
use worlds_server::{FrontDoor, ResourceLimits, ServerPolicy, SessionClient};
use worlds_telemetry::query_sessions;

fn door() -> FrontDoor {
    FrontDoor::serve(
        1,
        PageStore::new(4096),
        Registry::disabled(),
        ServerPolicy::default(),
    )
    .expect("bind front door")
}

#[test]
fn session_lifecycle_over_tcp() {
    let door = door();
    let mut tenant = SessionClient::open(
        door.addr(),
        "tenant-a",
        ResourceLimits {
            max_live_worlds: 8,
            ..ResourceLimits::unlimited()
        },
        RetryPolicy::default(),
        Registry::disabled(),
    )
    .unwrap();

    let w0 = tenant
        .spawn(1_000, vec![(0, b"alt zero".to_vec())])
        .unwrap();
    let w1 = tenant
        .spawn(1_000, vec![(0, b"alt one ".to_vec())])
        .unwrap();
    assert_ne!(w0, w1);
    tenant.commit(w1).unwrap();

    // Per-session telemetry rows are served off the same socket.
    let rows = query_sessions(door.addr()).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].name, "tenant-a");
    assert_eq!(rows[0].spawns, 2);
    assert_eq!(rows[0].commits, 1);

    // Lineage over the wire: fork, commit in the child, adopt.
    let child_id = tenant.fork("tenant-a/scout").unwrap();
    let mut conn = Conn::new(0, door.addr(), RetryPolicy::default(), Registry::disabled());
    let w = conn
        .call_ack(&Request::SessionSpawn {
            session: child_id,
            spin_ns: 0,
            writes: vec![(7, b"scouted".to_vec())],
        })
        .unwrap();
    conn.call_ack(&Request::SessionCommit {
        session: child_id,
        world: w,
    })
    .unwrap();
    conn.call_ack(&Request::SessionClose {
        session: child_id,
        adopt: true,
    })
    .unwrap();

    let mgr = door.manager();
    let sess = tenant.id();
    let root = mgr.root_of(sess).unwrap();
    assert_eq!(
        mgr.store().read_vec(root, 7, 0, 7).unwrap(),
        b"scouted",
        "child lineage adopted into parent over the wire"
    );
    tenant.close(false).unwrap();
    assert_eq!(mgr.session_count(), 0);
    mgr.quiesce();
    mgr.store().verify_refcounts().unwrap();
}

#[test]
fn nack_reasons_surface_in_client_errors() {
    let door = door();
    let mut conn = Conn::new(0, door.addr(), RetryPolicy::default(), Registry::disabled());

    // Bad name → bad_request.
    let err = conn
        .call_ack(&Request::SessionOpen {
            name: String::new(),
            max_live_worlds: 0,
            max_resident_frames: 0,
            vt_budget_ns: 0,
        })
        .unwrap_err();
    assert_eq!(err.nack_code(), Some(nack::BAD_REQUEST));
    assert!(err.to_string().contains("bad_request"), "{err}");

    // Unknown session → unknown_session.
    let err = conn
        .call_ack(&Request::SessionSpawn {
            session: 999,
            spin_ns: 0,
            writes: vec![],
        })
        .unwrap_err();
    assert_eq!(err.nack_code(), Some(nack::UNKNOWN_SESSION));
    assert!(err.to_string().contains("unknown_session"), "{err}");

    // Busting a limit → limit_exceeded.
    let session = conn
        .call_ack(&Request::SessionOpen {
            name: "capped".into(),
            max_live_worlds: 1,
            max_resident_frames: 0,
            vt_budget_ns: 0,
        })
        .unwrap();
    conn.call_ack(&Request::SessionSpawn {
        session,
        spin_ns: 0,
        writes: vec![],
    })
    .unwrap();
    let err = conn
        .call_ack(&Request::SessionSpawn {
            session,
            spin_ns: 0,
            writes: vec![],
        })
        .unwrap_err();
    assert_eq!(err.nack_code(), Some(nack::LIMIT_EXCEEDED));
    assert!(err.to_string().contains("limit_exceeded"), "{err}");

    // A node with no session handler refuses session traffic.
    let plain = worlds_net::NetNode::serve(9, PageStore::new(4096), Registry::disabled()).unwrap();
    let mut conn = Conn::new(0, plain.addr(), RetryPolicy::fast(), Registry::disabled());
    let err = conn
        .call_ack(&Request::SessionOpen {
            name: "nobody-home".into(),
            max_live_worlds: 0,
            max_resident_frames: 0,
            vt_budget_ns: 0,
        })
        .unwrap_err();
    assert_eq!(err.nack_code(), Some(nack::BAD_REQUEST));
}

#[test]
fn faulted_retries_stay_at_most_once() {
    // Every second op loses its *reply*: the client times out and
    // retries, the server's corr-id ledger replays the recorded Ack.
    // If spawns were re-applied, live_worlds would overshoot.
    let door = door();
    let proxy = FaultProxy::spawn(
        door.addr(),
        FaultSchedule::every_with(2, FaultKind::DropReply),
        Registry::disabled(),
    )
    .unwrap();
    let mut tenant = SessionClient::open(
        proxy.addr(),
        "flaky",
        ResourceLimits::unlimited(),
        RetryPolicy::fast(),
        Registry::disabled(),
    )
    .unwrap();
    for i in 0..4u64 {
        tenant.spawn(0, vec![(i, vec![i as u8; 16])]).unwrap();
    }
    assert!(proxy.faults_injected() > 0, "schedule actually fired");
    let rows = query_sessions(door.addr()).unwrap();
    assert_eq!(rows[0].live_worlds, 4, "retries never double-applied");
    assert_eq!(rows[0].spawns, 4);
    proxy.shutdown();
}

#[test]
fn connection_reset_mid_speculation_then_close_releases_everything() {
    let door = door();
    let mgr = door.manager().clone();
    let store = mgr.store().clone();
    let world_baseline = store.world_count();
    let frame_baseline = store.live_frames();

    // The tenant speaks through a proxy that starts resetting its
    // connection partway through the spawn storm.
    let proxy = FaultProxy::spawn(
        door.addr(),
        FaultSchedule::every_with(5, FaultKind::Reset),
        Registry::disabled(),
    )
    .unwrap();
    let mut tenant = SessionClient::open(
        proxy.addr(),
        "unlucky",
        ResourceLimits::unlimited(),
        RetryPolicy::fast(),
        Registry::disabled(),
    )
    .unwrap();
    let session = tenant.id();
    let mut outcomes: Vec<Result<u64, NetError>> = Vec::new();
    for i in 0..8u64 {
        outcomes.push(tenant.spawn(1_000, vec![(i, vec![i as u8; 32])]));
    }
    // Resets may or may not have eaten calls (retries absorb most);
    // either way worlds are now live server-side and the tenant's
    // connection story is a mess. No commit ever lands.
    assert!(outcomes.iter().any(|r| r.is_ok()), "some spawns landed");
    assert!(mgr.usage(session).unwrap().live_worlds > 0);
    proxy.shutdown();

    // The tenant is gone; the operator (or an idle sweeper) closes the
    // session from a clean connection. Everything must come back.
    let mut conn = Conn::new(0, door.addr(), RetryPolicy::default(), Registry::disabled());
    conn.call_ack(&Request::SessionClose {
        session,
        adopt: false,
    })
    .unwrap();

    assert_eq!(mgr.session_count(), 0);
    assert_eq!(store.world_count(), world_baseline, "no world residue");
    assert_eq!(store.live_frames(), frame_baseline, "no frame residue");
    store.verify_refcounts().unwrap();
}

#[test]
fn a_hundred_spawns_reuse_the_workers_the_door_grew() {
    // The accept loop and the tenant's connection handler each hold a
    // pool worker for life, so on a two-core host the pool has to grow
    // for them. A lone tenant never fills the fair scheduler's in-flight
    // cap, so each of its spawns runs on its own connection thread: 100
    // spawns add neither a task nor a thread per spawn.
    let obs = Registry::enabled();
    let door = FrontDoor::serve(
        1,
        PageStore::new(4096),
        obs.clone(),
        ServerPolicy::default(),
    )
    .expect("bind front door");
    let mut tenant = SessionClient::open(
        door.addr(),
        "steady",
        ResourceLimits::unlimited(),
        RetryPolicy::default(),
        Registry::disabled(),
    )
    .unwrap();
    let tasks_before = obs.stats().unwrap().exec.tasks_run.get();
    for round in 0..25u8 {
        let mut last = 0;
        for alt in 0..4u8 {
            last = tenant.spawn(0, vec![(0, vec![round, alt])]).unwrap();
        }
        tenant.commit(last).unwrap();
    }
    tenant.close(false).unwrap();

    let stats = obs.stats().unwrap();
    let grown = stats.exec.fallback_threads.get();
    let tasks = stats.exec.tasks_run.get() - tasks_before;
    assert_eq!(tasks, 0, "the spawns ran on the connection thread");
    // Sibling tests share the global pool and may take a lingering
    // worker now and then, hence a handful and not one.
    assert!(grown <= 8, "100 spawns added {grown} threads to the pool");
}

#[test]
fn the_vt_budget_is_burned_before_the_spawn_runs() {
    // The first spawn declares the whole budget and spins on for about
    // 50 ms. A second spawn from another connection during that spin
    // must already see the charge.
    const BUDGET: u64 = 50_000_000;
    let door = FrontDoor::serve(
        1,
        PageStore::new(4096),
        Registry::disabled(),
        ServerPolicy {
            spin_cap_ns: 10 * BUDGET,
            ..ServerPolicy::default()
        },
    )
    .expect("bind front door");
    let mut tenant = SessionClient::open(
        door.addr(),
        "budgeted",
        ResourceLimits {
            vt_budget_ns: BUDGET,
            ..ResourceLimits::unlimited()
        },
        RetryPolicy::default(),
        Registry::disabled(),
    )
    .unwrap();
    let session = tenant.id();
    let spinning = std::thread::spawn(move || tenant.spawn(BUDGET, vec![]));
    let mgr = door.manager();
    while mgr.usage(session).unwrap().live_worlds == 0 {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let mut other = Conn::new(0, door.addr(), RetryPolicy::default(), Registry::disabled());
    let err = other
        .call_ack(&Request::SessionSpawn {
            session,
            spin_ns: 1,
            writes: vec![],
        })
        .unwrap_err();
    assert_eq!(err.nack_code(), Some(nack::LIMIT_EXCEEDED), "{err}");
    spinning.join().unwrap().expect("the budgeted spawn lands");
    let usage = mgr.usage(session).unwrap();
    assert_eq!((usage.vt_spent_ns, usage.spawns), (BUDGET, 1));
}
