//! The ladder: fixed-count loops of each layer's public calls, timed from
//! outside. A workload's ladder calls the groups below with *its* shapes
//! (world size, pages written per child, write length), so a probe mean
//! times the calls-per-op counted in the traced repetition is that layer's
//! time per op on that workload.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use worlds_exec::{Executor, FairPolicy, FairScheduler, Reaper};
use worlds_net::{crc32, kind, Conn, Frame, NetNode, Request, RetryPolicy};
use worlds_obs::Registry;
use worlds_pagestore::{
    checkpoint, checkpoint_content, checkpoint_delta, delta_manifest, restore, PageStore, WorldId,
};
use worlds_remote::{Cluster, NetModel, NodeId};
use worlds_server::{FrontDoor, ResourceLimits, ServerPolicy, SessionManager};

use crate::metrics::LayerValues;
use crate::protocol::{timed, timed_value, Probe};
use crate::rng::Rng;

pub const PAGE: usize = 4096;

/// How a workload uses the page store.
pub struct StoreShape {
    /// Pages mapped (and fully written) in the world that gets forked.
    pub pages: u64,
    /// Distinct pages a child writes before it is adopted or dropped.
    pub child_writes: usize,
    /// Bytes per write and per read.
    pub io_len: usize,
    /// Children dropped together (one `drop_worlds` call).
    pub drop_batch: usize,
}

/// A store whose root world has `pages` fully written pages.
pub fn filled_root(store: &PageStore, pages: u64, rng: &mut Rng) -> WorldId {
    let root = store.create_world();
    let mut page = vec![0u8; store.page_size()];
    for vpn in 0..pages {
        rng.fill(&mut page);
        store.write(root, vpn, 0, &page).expect("root is live");
    }
    root
}

/// Vpns a probe child writes: spread over the mapped range, or fresh
/// vpns `0..n` when the world maps nothing (a session root).
fn probe_vpns(shape: &StoreShape) -> Vec<u64> {
    let n = shape.child_writes as u64;
    (0..n)
        .map(|i| {
            if shape.pages > n {
                i * (shape.pages / n)
            } else {
                i
            }
        })
        .collect()
}

fn dirty_child(store: &PageStore, root: WorldId, vpns: &[u64], data: &[u8]) -> WorldId {
    let child = store.fork_world(root).expect("root is live");
    for &vpn in vpns {
        store.write(child, vpn, 0, data).expect("child is live");
    }
    child
}

/// `pagestore.{fork,cow_write,inplace_write,read,adopt,adopt_clean}_ns`,
/// `drop_ns_per_world` and `drop_clean_ns_per_world`.
pub fn pagestore(p: &Probe, lv: &mut LayerValues, shape: &StoreShape, seed: u64) {
    let mut rng = Rng::new(seed).stream(0x9a9e);
    let store = PageStore::new(PAGE);
    let root = filled_root(&store, shape.pages, &mut rng);
    let vpns = probe_vpns(shape);
    let mut data = vec![0u8; shape.io_len];
    rng.fill(&mut data);
    let mut buf = vec![0u8; shape.io_len];

    lv.set(
        "pagestore.fork_ns",
        p.mean_ns(1, || {
            let (dt, child) = timed_value(|| store.fork_world(root).expect("fork"));
            store.drop_world(child).expect("drop");
            dt
        }),
    );

    // One child per iteration: its first write to each vpn faults (CoW on
    // a mapped page, zero-fill on a fresh one), the second is in place.
    let per_iter = vpns.len() as u64;
    let mut inplace = Duration::ZERO;
    let mut inplace_calls = 0u64;
    lv.set(
        "pagestore.cow_write_ns",
        p.mean_ns(per_iter, || {
            let child = store.fork_world(root).expect("fork");
            let fault = timed(|| {
                for &vpn in &vpns {
                    store.write(child, vpn, 0, &data).expect("write");
                }
            });
            inplace += timed(|| {
                for &vpn in &vpns {
                    store.write(child, vpn, 0, &data).expect("write");
                }
            });
            inplace_calls += per_iter;
            store.drop_world(child).expect("drop");
            fault
        }),
    );
    lv.set(
        "pagestore.inplace_write_ns",
        inplace.as_nanos() as f64 / inplace_calls.max(1) as f64,
    );

    // Reads go to a child that owns some pages privately and shares the
    // rest, like the worlds the workload reads.
    let reader = dirty_child(&store, root, &vpns, &data);
    let read_vpns: Vec<u64> = if shape.pages > 0 {
        (0..shape.pages).collect()
    } else {
        vpns.clone()
    };
    lv.set(
        "pagestore.read_ns",
        p.mean_ns(read_vpns.len() as u64, || {
            timed(|| {
                for &vpn in &read_vpns {
                    store.read(reader, vpn, 0, &mut buf).expect("read");
                }
            })
        }),
    );
    store.drop_world(reader).expect("drop");

    // Adopt and drop twice over: of children that wrote like the workload's
    // do, and of clean ones. The clean cost is what follows the size of the
    // page map alone; the difference is releasing the frames the writes
    // replaced, which a cheaper map would not save.
    let batch = shape.drop_batch.max(1);
    for (adopt, drop, vpns) in [
        (
            "pagestore.adopt_ns",
            "pagestore.drop_ns_per_world",
            &vpns[..],
        ),
        (
            "pagestore.adopt_clean_ns",
            "pagestore.drop_clean_ns_per_world",
            &[][..],
        ),
    ] {
        lv.set(
            adopt,
            p.mean_ns(1, || {
                let child = dirty_child(&store, root, vpns, &data);
                timed(|| store.adopt(root, child).expect("adopt"))
            }),
        );
        lv.set(
            drop,
            p.mean_ns(batch as u64, || {
                let doomed: Vec<WorldId> = (0..batch)
                    .map(|_| dirty_child(&store, root, vpns, &data))
                    .collect();
                timed(|| store.drop_worlds(&doomed))
            }),
        );
    }
}

/// `pagestore.{checkpoint,restore}_ns_per_page`,
/// `delta_ns_per_dirty_page` and `remote.delta_over_full`, on a world of
/// `pages` pages whose sibling differs in `dirty` of them.
pub fn checkpoints(p: &Probe, lv: &mut LayerValues, pages: u64, dirty: &[u64], seed: u64) {
    let mut rng = Rng::new(seed).stream(0xc4ec);
    let src = PageStore::new(PAGE);
    let dst = src.new_sharing_ids();
    let base = filled_root(&src, pages, &mut rng);
    let full = checkpoint(&src, base).expect("checkpoint");
    lv.set(
        "pagestore.checkpoint_ns_per_page",
        p.mean_ns(pages, || {
            timed(|| checkpoint(&src, base).expect("checkpoint"))
        }),
    );
    lv.set(
        "pagestore.restore_ns_per_page",
        p.mean_ns(pages, || {
            let (dt, replica) = timed_value(|| restore(&dst, &full).expect("restore"));
            dst.drop_world(replica).expect("drop");
            dt
        }),
    );
    let base_there = restore(&dst, &full).expect("restore");
    let mut page = vec![0u8; PAGE];
    rng.fill(&mut page);
    let sibling = dirty_child(&src, base, dirty, &page);
    // What Cluster::rfork does per delta ship: diff against the pinned
    // base, then encode the differing pages (inline: the worst case).
    let absent = vec![false; dirty.len()];
    lv.set(
        "pagestore.delta_ns_per_dirty_page",
        p.mean_ns(dirty.len() as u64, || {
            timed(|| {
                let manifest = delta_manifest(&src, sibling, base).expect("manifest");
                checkpoint_content(&src, sibling, base_there.raw(), &manifest, &absent)
                    .expect("content delta")
            })
        }),
    );
    let delta = checkpoint_delta(&src, sibling, base, base_there.raw()).expect("delta");
    lv.set(
        "remote.delta_over_full",
        delta.len() as f64 / full.len() as f64,
    );
}

/// `exec.scope3_ns`, `exec.fair_submit_ns`, `exec.reap_ns_per_world` and
/// `exec.fair_rejected`.
pub fn exec(p: &Probe, lv: &mut LayerValues, shape: &StoreShape, seed: u64) {
    let pool = Executor::global();
    let off = Registry::disabled();
    lv.set(
        "exec.scope3_ns",
        p.mean_ns(1, || {
            timed(|| {
                pool.scope(&off, |s| {
                    for _ in 0..3 {
                        s.spawn(|| {});
                    }
                })
            })
        }),
    );

    let fair = FairScheduler::new(pool, off, FairPolicy::default());
    lv.set(
        "exec.fair_submit_ns",
        p.mean_ns(1, || {
            let (tx, rx) = mpsc::channel();
            timed(|| {
                fair.submit(1, 1, move || {
                    let _ = tx.send(());
                })
                .expect("an idle tenant's queue has room");
                rx.recv().expect("released and run")
            })
        }),
    );
    lv.set("exec.fair_rejected", fair.stats(1).rejected as f64);

    // Enqueue-to-drained, so it includes the reaper's coalescing linger:
    // a latency, not the CPU the teardown costs.
    let mut rng = Rng::new(seed).stream(0xe8ec);
    let store = PageStore::new(PAGE);
    let root = filled_root(&store, shape.pages, &mut rng);
    let vpns = probe_vpns(shape);
    let data = vec![0xA5u8; shape.io_len];
    let reaper = Reaper::global();
    let batch = shape.drop_batch.max(1);
    lv.set(
        "exec.reap_ns_per_world",
        p.mean_ns(batch as u64, || {
            let losers: Vec<WorldId> = (0..batch)
                .map(|_| dirty_child(&store, root, &vpns, &data))
                .collect();
            timed(|| {
                reaper.enqueue_many(&store, &losers);
                reaper.drain();
            })
        }),
    );
}

/// A `SessionSpawn` request shaped like the `session_tcp` workload's.
pub fn small_request() -> Request {
    Request::SessionSpawn {
        session: 7,
        spin_ns: 0,
        writes: vec![(3, vec![0x5A; 64]), (9, vec![0xA5; 64])],
    }
}

/// `net.ping_rtt_ns`, the small- and large-frame codec and `crc_mb_s`.
pub fn net(p: &Probe, lv: &mut LayerValues, large_bytes: usize) {
    let node =
        NetNode::serve(9, PageStore::new(PAGE), Registry::disabled()).expect("bind loopback");
    let mut conn = Conn::new(9, node.addr(), RetryPolicy::default(), Registry::disabled());
    conn.call(&Request::Ping).expect("connect");
    lv.set(
        "net.ping_rtt_ns",
        p.mean_ns(1, || timed(|| conn.call(&Request::Ping).expect("ping"))),
    );
    node.shutdown();

    let req = small_request();
    let small = Frame::new(req.kind(), 42, req.encode_payload());
    let small_wire = small.encode();
    lv.set(
        "net.encode_small_ns",
        p.mean_ns(64, || {
            timed(|| {
                for _ in 0..64 {
                    std::hint::black_box(small.encode());
                }
            })
        }),
    );
    lv.set(
        "net.decode_small_ns",
        p.mean_ns(64, || {
            timed(|| {
                for _ in 0..64 {
                    std::hint::black_box(Frame::decode(&small_wire).expect("decode"));
                }
            })
        }),
    );

    let large = Frame::new(kind::RFORK, 43, vec![0xC3; large_bytes]);
    let large_wire = large.encode();
    let mb = large_wire.len() as f64 / 1e6;
    let mb_s = |ns_per_frame: f64| mb / (ns_per_frame / 1e9);
    lv.set(
        "net.encode_large_mb_s",
        mb_s(p.mean_ns(1, || timed(|| large.encode()))),
    );
    lv.set(
        "net.decode_large_mb_s",
        mb_s(p.mean_ns(1, || timed(|| Frame::decode(&large_wire).expect("decode")))),
    );
    lv.set(
        "net.crc_mb_s",
        mb_s(p.mean_ns(1, || timed(|| crc32(&large_wire)))),
    );
}

/// One session cycle against `f`, which performs a request and returns
/// its subject id; the four stage timings go to `acc`.
fn session_cycle(n: u64, acc: &mut [Duration; 4], mut f: impl FnMut(&Request) -> u64) {
    let writes = match small_request() {
        Request::SessionSpawn { writes, .. } => writes,
        _ => unreachable!(),
    };
    let open = Request::SessionOpen {
        name: format!("probe-{:08}", n % 100_000_000),
        max_live_worlds: 0,
        max_resident_frames: 0,
        vt_budget_ns: 0,
    };
    let (dt, session) = timed_value(|| f(&open));
    acc[0] += dt;
    let mut worlds = [0u64; 3];
    for w in &mut worlds {
        let req = Request::SessionSpawn {
            session,
            spin_ns: 0,
            writes: writes.clone(),
        };
        let (dt, world) = timed_value(|| f(&req));
        acc[1] += dt;
        *w = world;
    }
    acc[2] += timed(|| {
        f(&Request::SessionCommit {
            session,
            world: worlds[(n % 3) as usize],
        })
    });
    acc[3] += timed(|| {
        f(&Request::SessionClose {
            session,
            adopt: false,
        })
    });
}

fn session_cycles(p: &Probe, mut f: impl FnMut(&Request) -> u64) -> [f64; 4] {
    let mut acc = [Duration::ZERO; 4];
    let mut n = 0u64;
    // Four stages share the cap of four probes.
    let four = Probe {
        calls: p.calls,
        cap: p.cap * 4,
    };
    let started = Instant::now();
    while four.wants_more(n, started) {
        session_cycle(n, &mut acc, &mut f);
        n += 1;
    }
    let per = |d: Duration, calls: u64| d.as_nanos() as f64 / calls as f64;
    [
        per(acc[0], n),
        per(acc[1], 3 * n),
        per(acc[2], n),
        per(acc[3], n),
    ]
}

/// `server.{open,spawn,commit,close}_ns` by direct `SessionManager` calls
/// and `server.rpc_*_ns` for the same calls through one `Conn`.
pub fn server(p: &Probe, lv: &mut LayerValues) {
    let mgr = SessionManager::with_defaults(
        PageStore::new(PAGE),
        Registry::disabled(),
        ServerPolicy::default(),
    );
    let direct = session_cycles(p, |req| {
        match req {
            Request::SessionOpen { name, .. } => mgr.open(name, ResourceLimits::unlimited()),
            Request::SessionSpawn {
                session,
                spin_ns,
                writes,
            } => mgr.spawn(*session, *spin_ns, writes),
            Request::SessionCommit { session, world } => {
                mgr.commit(*session, *world).map(|()| *world)
            }
            Request::SessionClose { session, adopt } => {
                mgr.close(*session, *adopt).map(|()| *session)
            }
            _ => unreachable!(),
        }
        .expect("an unloaded manager refuses nothing")
    });
    mgr.quiesce();

    let door = FrontDoor::serve(
        8,
        PageStore::new(PAGE),
        Registry::disabled(),
        ServerPolicy::default(),
    )
    .expect("bind loopback");
    let mut conn = Conn::new(8, door.addr(), RetryPolicy::default(), Registry::disabled());
    let rpc = session_cycles(p, |req| conn.call_ack(req).expect("an unloaded door acks"));
    door.manager().quiesce();
    door.shutdown();

    for (i, stage) in ["open", "spawn", "commit", "close"].iter().enumerate() {
        lv.set(&format!("server.{stage}_ns"), direct[i]);
        lv.set(&format!("server.rpc_{stage}_ns"), rpc[i]);
    }
}

/// Mean ns of `[rfork_full, rfork_delta, commit_back, discard]` on
/// `cluster` (2 nodes), with an origin of `pages` pages of which the
/// `hot` ones change between rforks.
fn remote_cycle(p: &Probe, mut cluster: Cluster, pages: u64, hot: &[u64], seed: u64) -> [f64; 4] {
    let mut rng = Rng::new(seed).stream(0x4e40);
    let origin = cluster.create_world(NodeId(0));
    let mut page = vec![0u8; PAGE];
    for vpn in 0..pages {
        rng.fill(&mut page);
        cluster.write(origin, vpn, &page).expect("origin is live");
    }
    let there = NodeId(1);

    // Delta off: every rfork ships the full image.
    let mut discard = Duration::ZERO;
    let mut discards = 0u64;
    let full = p.mean_ns(1, || {
        let (dt, (replica, _)) = timed_value(|| cluster.rfork(origin, there).expect("rfork"));
        discard += timed(|| cluster.discard(replica).expect("discard"));
        discards += 1;
        dt
    });

    // Delta on: the first rfork pins the base, later ones ship the hot
    // pages only; each winner is committed back so the origin keeps
    // drifting from the pinned base by exactly `hot`.
    cluster.set_delta_rfork(true);
    // As in the workload: the receiver's content index stays off.
    cluster.node(there).store().set_dedupe(false);
    let mut commit_back = Duration::ZERO;
    let mut commits = 0u64;
    let mut round = 0u8;
    let mut delta_round = |cluster: &mut Cluster, time_it: bool| {
        let (dt, (replica, _)) = timed_value(|| cluster.rfork(origin, there).expect("rfork"));
        round = round.wrapping_add(1);
        for &vpn in hot {
            cluster
                .write(replica, vpn, &[round; 512])
                .expect("replica is live");
        }
        let cb = timed(|| cluster.commit_back(origin, replica).expect("commit back"));
        if time_it {
            commit_back += cb;
            commits += 1;
        }
        dt
    };
    delta_round(&mut cluster, false);
    let delta = p.mean_ns(1, || delta_round(&mut cluster, true));
    cluster.set_delta_rfork(false);
    [
        full,
        delta,
        commit_back.as_nanos() as f64 / commits.max(1) as f64,
        discard.as_nanos() as f64 / discards.max(1) as f64,
    ]
}

/// `remote.{rfork_full,rfork_delta,commit_back,discard}_ns` over loopback
/// TCP, the two rforks in process, and the wire factors between them.
pub fn remote(p: &Probe, lv: &mut LayerValues, pages: u64, hot: &[u64], seed: u64) {
    let tcp =
        Cluster::tcp(2, PAGE, NetModel::ideal(), Registry::disabled()).expect("bind loopback");
    let wire = remote_cycle(p, tcp, pages, hot, seed);
    let inproc = remote_cycle(
        p,
        Cluster::new(2, PAGE, NetModel::ideal()),
        pages,
        hot,
        seed,
    );
    lv.set("remote.rfork_full_ns", wire[0]);
    lv.set("remote.rfork_delta_ns", wire[1]);
    lv.set("remote.commit_back_ns", wire[2]);
    lv.set("remote.discard_ns", wire[3]);
    lv.set("remote.rfork_full_inproc_ns", inproc[0]);
    lv.set("remote.rfork_delta_inproc_ns", inproc[1]);
    lv.set("remote.wire_factor_full", wire[0] / inproc[0]);
    lv.set("remote.wire_factor_delta", wire[1] / inproc[1]);
}
