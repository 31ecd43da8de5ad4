//! In-process session-manager contracts: admission, limits, fairness,
//! lineage, and total teardown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use worlds_exec::FairPolicy;
use worlds_obs::Registry;
use worlds_pagestore::PageStore;
use worlds_server::{ResourceLimits, ServerPolicy, SessionError, SessionManager};

fn manager(policy: ServerPolicy) -> SessionManager {
    SessionManager::with_defaults(PageStore::new(4096), Registry::disabled(), policy)
}

fn page(byte: u8) -> Vec<u8> {
    vec![byte; 64]
}

#[test]
fn spawn_commit_round_trip_is_exactly_one_commit() {
    let mgr = manager(ServerPolicy::default());
    let id = mgr.open("tenant-a", ResourceLimits::unlimited()).unwrap();
    let w0 = mgr.spawn(id, 1_000, &[(0, page(b'0'))]).unwrap();
    let w1 = mgr.spawn(id, 1_000, &[(0, page(b'1'))]).unwrap();
    let w2 = mgr.spawn(id, 1_000, &[(0, page(b'2'))]).unwrap();
    assert_eq!(mgr.usage(id).unwrap().live_worlds, 3);

    mgr.commit(id, w1).unwrap();
    let root = mgr.root_of(id).unwrap();
    assert_eq!(mgr.store().read_vec(root, 0, 0, 64).unwrap(), page(b'1'));

    // Exactly-one-commit: the siblings died with the rendezvous, so
    // committing them (or the winner again) finds no world.
    for stale in [w0, w1, w2] {
        assert!(matches!(
            mgr.commit(id, stale),
            Err(SessionError::NoSuchWorld(_))
        ));
    }
    let usage = mgr.usage(id).unwrap();
    assert_eq!((usage.live_worlds, usage.spawns, usage.commits), (0, 3, 1));
    assert_eq!(usage.vt_spent_ns, 3_000);

    mgr.quiesce();
    mgr.store().verify_refcounts().unwrap();
}

#[test]
fn limits_refuse_spawns_not_sessions() {
    let mgr = manager(ServerPolicy::default());
    let id = mgr
        .open(
            "bounded",
            ResourceLimits {
                max_live_worlds: 2,
                max_resident_frames: 0,
                vt_budget_ns: 10_000,
            },
        )
        .unwrap();
    let w0 = mgr.spawn(id, 1_000, &[]).unwrap();
    let _w1 = mgr.spawn(id, 1_000, &[]).unwrap();
    let err = mgr.spawn(id, 1_000, &[]).unwrap_err();
    assert!(matches!(err, SessionError::LimitExceeded(_)), "{err}");

    // Committing releases a slot; the axis is live, not lifetime.
    mgr.commit(id, w0).unwrap();
    let _w2 = mgr.spawn(id, 1_000, &[]).unwrap();

    // Virtual time is budgeted on *declared* cost.
    let err = mgr.spawn(id, 9_999_999, &[]).unwrap_err();
    assert!(matches!(err, SessionError::LimitExceeded(_)), "{err}");

    let usage = mgr.usage(id).unwrap();
    assert_eq!(usage.rejected, 2);
    assert_eq!(mgr.totals().rejected_limit, 2);
    // The session itself stays admitted and functional throughout.
    assert_eq!(mgr.session_count(), 1);
}

#[test]
fn resident_frame_limit_counts_cow_frames() {
    let mgr = manager(ServerPolicy::default());
    let id = mgr
        .open(
            "tight",
            ResourceLimits {
                max_live_worlds: 0,
                max_resident_frames: 3,
                vt_budget_ns: 0,
            },
        )
        .unwrap();
    // Two COW'd pages in a live spec world: charged to the session.
    let _w = mgr
        .spawn(id, 0, &[(0, page(b'a')), (1, page(b'b'))])
        .unwrap();
    assert_eq!(mgr.usage(id).unwrap().resident_frames, 2);
    // A further 2-page spawn projects 4 > 3: refused before the fork.
    let err = mgr
        .spawn(id, 0, &[(2, page(b'c')), (3, page(b'd'))])
        .unwrap_err();
    assert!(matches!(err, SessionError::LimitExceeded(_)), "{err}");
    // A 1-page spawn still fits.
    let _ = mgr.spawn(id, 0, &[(2, page(b'c'))]).unwrap();
}

#[test]
fn close_mid_speculation_releases_every_world_and_frame() {
    let store = PageStore::new(4096);
    let mgr =
        SessionManager::with_defaults(store.clone(), Registry::disabled(), ServerPolicy::default());
    let world_baseline = store.world_count();
    let frame_baseline = store.live_frames();

    let id = mgr.open("doomed", ResourceLimits::unlimited()).unwrap();
    for i in 0..6u8 {
        mgr.spawn(id, 1_000, &[(u64::from(i), page(b'a' + i))])
            .unwrap();
    }
    assert!(store.world_count() > world_baseline);
    assert!(store.live_frames() > frame_baseline);

    // No commit ever happens: the tenant vanishes mid-speculation.
    mgr.close(id, false).unwrap();

    assert!(matches!(
        mgr.usage(id),
        Err(SessionError::UnknownSession(_))
    ));
    assert_eq!(mgr.session_count(), 0);
    assert_eq!(store.world_count(), world_baseline, "all worlds released");
    assert_eq!(store.live_frames(), frame_baseline, "all frames released");
    store.verify_refcounts().unwrap();
}

#[test]
fn close_races_with_queued_spawns_without_hanging() {
    // Spawns block in the fair queue while close() purges it: the
    // blocked spawn calls must return (an error), not hang, and the
    // store must come back to baseline.
    let store = PageStore::new(4096);
    let policy = ServerPolicy {
        fair: FairPolicy {
            quantum: 1_000,
            queue_cap: 64,
            max_inflight: 1,
        },
        ..ServerPolicy::default()
    };
    let mgr = SessionManager::with_defaults(store.clone(), Registry::disabled(), policy);
    let world_baseline = store.world_count();
    let frame_baseline = store.live_frames();

    let id = mgr.open("racer", ResourceLimits::unlimited()).unwrap();
    let outcomes = Arc::new(AtomicU64::new(0));
    let mut spawners = Vec::new();
    for i in 0..8u64 {
        let mgr = mgr.clone();
        let outcomes = outcomes.clone();
        spawners.push(std::thread::spawn(move || {
            // Long-declared work keeps the queue occupied while the
            // close lands; success and refusal are both legal, a hang
            // is not.
            let _ = mgr.spawn(id, 5_000_000, &[(i, vec![i as u8; 32])]);
            outcomes.fetch_add(1, Ordering::Relaxed);
        }));
    }
    // Let some spawns reach the queue, then pull the rug.
    std::thread::sleep(Duration::from_millis(10));
    mgr.close(id, false).unwrap();
    for t in spawners {
        t.join().unwrap();
    }
    assert_eq!(outcomes.load(Ordering::Relaxed), 8, "every spawn returned");
    assert_eq!(store.world_count(), world_baseline);
    assert_eq!(store.live_frames(), frame_baseline);
    store.verify_refcounts().unwrap();
}

#[test]
fn lineage_fork_adopts_or_discards_wholesale() {
    let mgr = manager(ServerPolicy::default());
    let parent = mgr.open("parent", ResourceLimits::unlimited()).unwrap();
    let w = mgr.spawn(parent, 0, &[(0, page(b'P'))]).unwrap();
    mgr.commit(parent, w).unwrap();

    // Child A: commits its own page, then is adopted wholesale.
    let a = mgr.fork(parent, "child-a").unwrap();
    let w = mgr.spawn(a, 0, &[(1, page(b'A'))]).unwrap();
    mgr.commit(a, w).unwrap();
    mgr.close(a, true).unwrap();

    // Child B: commits, but is discarded.
    let b = mgr.fork(parent, "child-b").unwrap();
    let w = mgr.spawn(b, 0, &[(2, page(b'B'))]).unwrap();
    mgr.commit(b, w).unwrap();
    mgr.close(b, false).unwrap();

    let root = mgr.root_of(parent).unwrap();
    let store = mgr.store();
    assert_eq!(store.read_vec(root, 0, 0, 64).unwrap(), page(b'P'));
    assert_eq!(
        store.read_vec(root, 1, 0, 64).unwrap(),
        page(b'A'),
        "adopted"
    );
    // Reads of unmapped pages zero-fill; the discarded child's page
    // must not have leaked into the parent.
    let got = store
        .read_vec(root, 2, 0, 64)
        .unwrap_or_else(|_| vec![0; 64]);
    assert_ne!(got, page(b'B'), "discarded child leaked into parent");

    // Closing the parent takes the remaining lineage down.
    let c = mgr.fork(parent, "child-c").unwrap();
    mgr.close(parent, false).unwrap();
    assert!(matches!(mgr.usage(c), Err(SessionError::UnknownSession(_))));
    assert_eq!(mgr.session_count(), 0);
    mgr.quiesce();
    assert_eq!(store.world_count(), 0);
    store.verify_refcounts().unwrap();
}

#[test]
fn session_cap_and_full_queue_surface_as_overloaded() {
    let policy = ServerPolicy {
        max_sessions: 2,
        fair: FairPolicy {
            quantum: 1_000,
            queue_cap: 1,
            max_inflight: 1,
        },
        ..ServerPolicy::default()
    };
    let mgr = manager(policy);
    let a = mgr.open("a", ResourceLimits::unlimited()).unwrap();
    let _b = mgr.open("b", ResourceLimits::unlimited()).unwrap();
    let err = mgr.open("c", ResourceLimits::unlimited()).unwrap_err();
    assert!(matches!(err, SessionError::Overloaded(_)), "{err}");

    // Flood one tenant's queue from many threads: with 1 slot in
    // flight and 1 queued, at least one of 6 concurrent spawns must be
    // refused Overloaded, and every refusal is backpressure — the
    // session survives.
    let mut threads = Vec::new();
    let overloads = Arc::new(AtomicU64::new(0));
    for _ in 0..6 {
        let mgr = mgr.clone();
        let overloads = overloads.clone();
        threads.push(std::thread::spawn(move || {
            if let Err(SessionError::Overloaded(_)) = mgr.spawn(a, 8_000_000, &[]) {
                overloads.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert!(
        overloads.load(Ordering::Relaxed) > 0,
        "queue bound enforced"
    );
    assert!(mgr.totals().rejected_overloaded > 0);
    assert_eq!(mgr.session_count(), 2, "overload never kills sessions");
}

#[test]
fn hog_tenant_cannot_starve_a_light_one() {
    let policy = ServerPolicy {
        fair: FairPolicy {
            quantum: 2_000_000,
            queue_cap: 256,
            max_inflight: 2,
        },
        spin_cap_ns: 2_000_000,
        ..ServerPolicy::default()
    };
    let mgr = manager(policy);
    let hog = mgr.open("hog", ResourceLimits::unlimited()).unwrap();
    let mouse = mgr.open("mouse", ResourceLimits::unlimited()).unwrap();

    // 12 hog threads keep a deep backlog of 2ms tasks flowing.
    let stop = Arc::new(AtomicU64::new(0));
    let mut hogs = Vec::new();
    for _ in 0..12 {
        let mgr = mgr.clone();
        let stop = stop.clone();
        hogs.push(std::thread::spawn(move || {
            while stop.load(Ordering::Relaxed) == 0 {
                let _ = mgr.spawn(hog, 2_000_000, &[]);
            }
        }));
    }
    // The light tenant's sequential spawns must all get through with
    // bounded latency while the hog's backlog persists.
    let started = Instant::now();
    for _ in 0..10 {
        mgr.spawn(mouse, 10_000, &[]).unwrap();
    }
    let mouse_elapsed = started.elapsed();
    stop.store(1, Ordering::Relaxed);
    for t in hogs {
        t.join().unwrap();
    }
    assert!(
        mouse_elapsed < Duration::from_secs(10),
        "light tenant starved: 10 spawns took {mouse_elapsed:?}"
    );
    let hog_usage = mgr.usage(hog).unwrap();
    assert!(hog_usage.spawns > 0, "hog made progress too");
    // DRR charged the hog its declared cost every visit.
    assert!(hog_usage.vt_spent_ns > mgr.usage(mouse).unwrap().vt_spent_ns);
}

#[test]
fn reports_expose_live_rows_for_worlds_top() {
    let mgr = manager(ServerPolicy::default());
    let a = mgr
        .open(
            "tenant-a",
            ResourceLimits {
                vt_budget_ns: 1_000_000,
                ..ResourceLimits::unlimited()
            },
        )
        .unwrap();
    let b = mgr.fork(a, "tenant-a/child").unwrap();
    mgr.spawn(a, 5_000, &[(0, page(b'x'))]).unwrap();

    let rows = mgr.reports();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].session, a);
    assert_eq!(rows[0].name, "tenant-a");
    assert_eq!(rows[0].parent, 0);
    assert_eq!(rows[0].live_worlds, 1);
    assert_eq!(rows[0].vt_spent_ns, 5_000);
    assert_eq!(rows[0].vt_budget_ns, 1_000_000);
    assert_eq!(rows[1].session, b);
    assert_eq!(rows[1].parent, a);
    mgr.close(a, false).unwrap();
    assert!(mgr.reports().is_empty());
}
