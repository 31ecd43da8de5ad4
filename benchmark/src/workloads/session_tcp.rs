//! `session_tcp`: an in-process `FrontDoor` on loopback and two client
//! threads with one `Conn` each. A cycle is `SessionOpen`, three
//! `SessionSpawn{spin_ns: 0, 2 pages x 64 B}`, one `SessionCommit` (seeded
//! choice) and `SessionClose`: six small-frame RPCs with no guest work, so
//! the cycle *is* the front door's overhead (net round trips, reply
//! ledger, admission, the fair scheduler) with the page store negligible.
//!
//! Every 64th cycle of a client is followed by one untimed, uncounted
//! probe cycle that also commits a stale sibling (must nack
//! `NO_SUCH_WORLD`) and reads the committed bytes back in process.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use worlds_net::{nack, Conn, Frame, NetError, Reply, Request, RetryPolicy};
use worlds_obs::Registry;
use worlds_pagestore::PageStore;
use worlds_server::{FrontDoor, ServerPolicy, SessionManager};

use crate::metrics::LayerValues;
use crate::probes::{self, StoreShape, PAGE};
use crate::protocol::{
    count, count_registry, count_store, failed_checks, split_shares, Counts, Driver, Measured,
    Probe, TracedRep, Workload,
};
use crate::rng::Rng;
use crate::trace::{Layer, Tracer};

const CLIENTS: usize = 2;
const ALTS: usize = 3;
const PAGES_PER_SPAWN: usize = 2;
const IO: usize = 64;
const BATCH: usize = 64;
const POOL: usize = 1024;
/// A spawn's writes land in distinct vpns below this.
const VPNS: u16 = 64;

struct Cycle {
    writes: [Vec<(u64, Vec<u8>)>; ALTS],
    choice: usize,
}

struct Client {
    conn: Conn,
    id: usize,
    cycles: Vec<Cycle>,
    /// Sessions opened so far; keeps session names unique and of fixed
    /// width, so the bytes on the wire do not depend on the cycle number.
    opened: u64,
    wire_bytes: u64,
}

/// Bytes `req` and its `Ack` put on the wire, from the public codec.
fn wire_len(req: &Request) -> u64 {
    let ack = Reply::Ack { world: 0 };
    let request = Frame::new(req.kind(), 0, req.encode_payload()).wire_len();
    let reply = Frame::new(ack.kind(), 0, ack.encode_payload()).wire_len();
    (request + reply) as u64
}

/// Wire bytes of one whole cycle. Every field of every request has a fixed
/// width (names included), so one cycle stands for all of them.
fn cycle_wire_bytes(client: &Client) -> u64 {
    let spawn = Request::SessionSpawn {
        session: 0,
        spin_ns: 0,
        writes: client.cycles[0].writes[0].clone(),
    };
    let commit = Request::SessionCommit {
        session: 0,
        world: 0,
    };
    let close = Request::SessionClose {
        session: 0,
        adopt: false,
    };
    wire_len(&client.open_request(0))
        + ALTS as u64 * wire_len(&spawn)
        + wire_len(&commit)
        + wire_len(&close)
}

impl Client {
    /// One RPC inside a span.
    fn rpc(&mut self, tr: &mut Tracer, span: &'static str, req: &Request) -> Result<u64, NetError> {
        let s = tr.begin(span, Layer::Server);
        let out = self.conn.call_ack(req);
        tr.end(s);
        out
    }

    fn open_request(&self, n: u64) -> Request {
        Request::SessionOpen {
            name: format!("client{}-{n:010}", self.id),
            max_live_worlds: 0,
            max_resident_frames: 0,
            vt_budget_ns: 0,
        }
    }

    /// Open, spawn three, commit the seeded choice. Returns the session,
    /// the spawned worlds, or the first error.
    fn up_to_commit(
        &mut self,
        tr: &mut Tracer,
        cycle: usize,
    ) -> Result<(u64, [u64; ALTS]), NetError> {
        self.opened += 1;
        let open = self.open_request(self.opened);
        let session = self.rpc(tr, "rpc_open", &open)?;
        let mut worlds = [0u64; ALTS];
        for (alt, world) in worlds.iter_mut().enumerate() {
            let spawn = Request::SessionSpawn {
                session,
                spin_ns: 0,
                writes: self.cycles[cycle].writes[alt].clone(),
            };
            *world = self.rpc(tr, "rpc_spawn", &spawn)?;
        }
        let commit = Request::SessionCommit {
            session,
            world: worlds[self.cycles[cycle].choice],
        };
        self.rpc(tr, "rpc_commit", &commit)?;
        Ok((session, worlds))
    }

    fn close(&mut self, tr: &mut Tracer, session: u64) -> Result<u64, NetError> {
        let close = Request::SessionClose {
            session,
            adopt: false,
        };
        self.rpc(tr, "rpc_close", &close)
    }

    /// The measured op.
    fn cycle(&mut self, d: &mut Driver, cycle: usize, wire_bytes: u64) {
        let op = d.start_op();
        let out = self
            .up_to_commit(&mut d.tracer, cycle)
            .and_then(|(session, _)| self.close(&mut d.tracer, session));
        d.finish_op(op);
        match out {
            Ok(_) => self.wire_bytes += wire_bytes,
            Err(e) => d.fail(&format!("cycle refused or errored: {e}")),
        }
    }

    /// The same cycle, untimed and uncounted, with the checks that need
    /// the session to be still open: the root reads the chosen world's
    /// bytes, and committing a sibling afterwards is refused.
    fn probe_cycle(&mut self, mgr: &SessionManager, cycle: usize) -> bool {
        let mut off = Tracer::disabled();
        let Ok((session, worlds)) = self.up_to_commit(&mut off, cycle) else {
            return false;
        };
        let choice = self.cycles[cycle].choice;
        let mut ok = mgr.root_of(session).is_ok_and(|root| {
            self.cycles[cycle].writes[choice]
                .iter()
                .all(|(vpn, bytes)| {
                    mgr.store()
                        .read_vec(root, *vpn, 0, IO)
                        .is_ok_and(|got| &got == bytes)
                })
        });
        let stale = self.conn.call_ack(&Request::SessionCommit {
            session,
            world: worlds[(choice + 1) % ALTS],
        });
        ok &= stale.is_err_and(|e| e.nack_code() == Some(nack::NO_SUCH_WORLD));
        ok & self.close(&mut off, session).is_ok()
    }
}

pub struct SessionTcp {
    door: FrontDoor,
    obs: Option<Registry>,
    clients: Vec<Client>,
    /// Cycles and probe cycles the clients completed: the door must have
    /// committed exactly this many worlds.
    commits_expected: u64,
    baseline: (usize, usize, usize),
}

impl SessionTcp {
    fn levels(&self) -> (usize, usize, usize) {
        let mgr = self.door.manager();
        (
            mgr.session_count(),
            mgr.store().world_count(),
            mgr.store().live_frames(),
        )
    }
}

impl Workload for SessionTcp {
    const NAME: &'static str = "session_tcp";

    fn build(seed: u64, rep: u64, obs: Option<Registry>) -> SessionTcp {
        let root = Rng::new(seed).stream(0x5e55_0000 + rep);
        let registry = obs.clone().unwrap_or_else(Registry::disabled);
        let store = match &obs {
            Some(obs) => PageStore::with_obs(PAGE, obs.clone()),
            None => PageStore::new(PAGE),
        };
        let door = FrontDoor::serve(1, store, registry.clone(), ServerPolicy::default())
            .expect("bind loopback");
        let clients = (0..CLIENTS)
            .map(|id| {
                let mut rng = root.stream(id as u64);
                let mut scratch: Vec<u16> = (0..VPNS).collect();
                let cycles = (0..POOL)
                    .map(|_| Cycle {
                        writes: std::array::from_fn(|_| {
                            rng.sample_distinct(&mut scratch, PAGES_PER_SPAWN)
                                .into_iter()
                                .map(|vpn| {
                                    let mut bytes = vec![0u8; IO];
                                    rng.fill(&mut bytes);
                                    (vpn as u64, bytes)
                                })
                                .collect()
                        }),
                        choice: rng.below(ALTS as u64) as usize,
                    })
                    .collect();
                let mut conn = Conn::new(
                    100 + id as u64,
                    door.addr(),
                    RetryPolicy::default(),
                    registry.clone(),
                );
                conn.call(&Request::Ping)
                    .expect("connect to the front door");
                Client {
                    conn,
                    id,
                    cycles,
                    opened: 0,
                    wire_bytes: 0,
                }
            })
            .collect();
        let mut w = SessionTcp {
            door,
            obs,
            clients,
            commits_expected: 0,
            baseline: (0, 0, 0),
        };
        w.baseline = w.levels();
        w
    }

    fn measure(&mut self, budget: Duration, tracing: Option<Instant>) -> Measured {
        let mgr = self.door.manager().clone();
        let start = Barrier::new(CLIENTS);
        let drivers: Vec<(Driver, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let (mgr, start) = (&mgr, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut d = Driver::new("cycle", client.id as u32, budget, tracing);
                        let wire_bytes = cycle_wire_bytes(client);
                        let mut probes = 0;
                        while d.has_budget() {
                            for _ in 0..BATCH {
                                let cycle = d.ops() as usize % POOL;
                                client.cycle(&mut d, cycle, wire_bytes);
                            }
                            let cycle = d.ops() as usize % POOL;
                            if !client.probe_cycle(mgr, cycle) {
                                d.fail("probe cycle: committed bytes or stale-commit nack");
                            }
                            probes += 1;
                        }
                        (d, probes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut m = Measured::default();
        for (d, probes) in drivers {
            self.commits_expected += d.ops() - d.failed.min(d.ops()) + probes;
            m.absorb(d);
        }
        m
    }

    fn settle(&mut self) {
        self.door.manager().quiesce();
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::new();
        let mgr = self.door.manager();
        count_store(&mut c, &mgr.store().stats());
        if let Some(obs) = &self.obs {
            count_registry(&mut c, obs);
        }
        let totals = mgr.totals();
        count(&mut c, "server.committed", totals.committed);
        count(
            &mut c,
            "server.rejected_overloaded",
            totals.rejected_overloaded,
        );
        count(&mut c, "server.rejected_limit", totals.rejected_limit);
        count(
            &mut c,
            "wire.bytes",
            self.clients.iter().map(|cl| cl.wire_bytes).sum(),
        );
        count(
            &mut c,
            "gauge.live_frames",
            mgr.store().live_frames() as u64,
        );
        c
    }

    fn finish(self) -> u64 {
        let mgr = self.door.manager();
        let failed = failed_checks(&[
            (mgr.store().verify_refcounts().is_ok(), "verify_refcounts"),
            (
                self.levels() == self.baseline,
                "session_count, world_count and live_frames back to baseline",
            ),
            (
                mgr.totals().committed == self.commits_expected,
                "totals().committed equals the cycles run",
            ),
        ]);
        self.door.shutdown();
        failed
    }

    fn ladder(seed: u64, p: &Probe, rep: &TracedRep, lv: &mut LayerValues) {
        // A session root maps nothing: spawns fork it empty and their
        // writes zero-fill fresh pages.
        let shape = StoreShape {
            pages: 0,
            child_writes: PAGES_PER_SPAWN,
            io_len: IO,
            drop_batch: ALTS - 1,
        };
        probes::pagestore(p, lv, &shape, seed);
        probes::exec(p, lv, &shape, seed);
        probes::net(p, lv, 1 << 20);
        probes::server(p, lv);

        // Per cycle: every frame sent is one round trip (wire, ledger,
        // handler dispatch); each spawn goes through the fair scheduler;
        // the store forks, faults, adopts and drops what the counters say.
        // The session layer keeps the rest, which under two clients
        // includes their waiting for each other.
        let faults = rep.per_op("store.cow_faults") + rep.per_op("store.zero_fills");
        let pagestore_ns = rep.per_op("store.forks") * lv.get("pagestore.fork_ns")
            + faults * lv.get("pagestore.cow_write_ns")
            + (rep.per_op("store.writes") - faults) * lv.get("pagestore.inplace_write_ns")
            + rep.per_op("store.adopts") * lv.get("pagestore.adopt_ns")
            + rep.per_op("store.worlds_dropped") * lv.get("pagestore.drop_ns_per_world");
        let net_ns = rep.per_op("net.frames_sent") * lv.get("net.ping_rtt_ns");
        let exec_ns = ALTS as f64 * lv.get("exec.fair_submit_ns");
        split_shares(
            lv,
            rep,
            Layer::Server,
            rep.op_ns * (1.0 - rep.share_of(Layer::Harness)),
            &[
                (Layer::Net, net_ns),
                (Layer::Exec, exec_ns),
                (Layer::Pagestore, pagestore_ns),
            ],
        );
    }
}
