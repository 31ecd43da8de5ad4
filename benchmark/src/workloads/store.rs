//! `store_fork` and `store_write`: the page store driven directly, one
//! thread, over the same 2 048-page (8 MiB) root used two opposite ways.
//!
//! `store_fork` forks four children per round and writes almost nothing,
//! so the three calls whose cost follows the size of the page map
//! (`fork_world`, `adopt`, `drop_worlds`) are the round. `store_write`
//! forks once and then faults, rewrites and reads thousands of pages, so
//! those same calls are a few percent of it. A page-map redesign has to
//! show both rows: a fork win paid for with slower lookups shows up here.

use std::time::{Duration, Instant};

use worlds_obs::Registry;
use worlds_pagestore::{PageStore, WorldId};

use crate::metrics::LayerValues;
use crate::probes::{self, StoreShape, PAGE};
use crate::protocol::{
    count, count_store, failed_checks, Counts, Driver, Measured, Probe, TracedRep, Workload,
};
use crate::rng::Rng;
use crate::trace::Layer;

pub const ROOT_PAGES: usize = 2048;
/// Distinct payloads writes pick from.
const PAYLOADS: usize = 256;

/// The root world plus the harness-side mirror of the first `io_len`
/// bytes of each of its pages (the only bytes the workloads write).
struct Rooted {
    store: PageStore,
    root: WorldId,
    io_len: usize,
    mirror: Vec<u8>,
    payloads: Vec<Vec<u8>>,
    baseline_frames: usize,
}

impl Rooted {
    fn build(rng: &mut Rng, obs: Option<Registry>, io_len: usize) -> Rooted {
        let store = match obs {
            Some(obs) => PageStore::with_obs(PAGE, obs),
            None => PageStore::new(PAGE),
        };
        let root = probes::filled_root(&store, ROOT_PAGES as u64, rng);
        let mut mirror = vec![0u8; ROOT_PAGES * io_len];
        for vpn in 0..ROOT_PAGES {
            store
                .read(
                    root,
                    vpn as u64,
                    0,
                    &mut mirror[vpn * io_len..(vpn + 1) * io_len],
                )
                .expect("root is live");
        }
        let payloads = (0..PAYLOADS)
            .map(|_| {
                let mut p = vec![0u8; io_len];
                rng.fill(&mut p);
                p
            })
            .collect();
        let baseline_frames = store.live_frames();
        Rooted {
            store,
            root,
            io_len,
            mirror,
            payloads,
            baseline_frames,
        }
    }

    fn mirror_write(&mut self, vpn: u16, payload: u8) {
        let at = vpn as usize * self.io_len;
        self.mirror[at..at + self.io_len].copy_from_slice(&self.payloads[payload as usize]);
    }

    /// Does `world` read back `vpn` as the mirror has it?
    fn reads_back(&self, world: WorldId, vpn: u16, buf: &mut [u8]) -> bool {
        let at = vpn as usize * self.io_len;
        self.store.read(world, vpn as u64, 0, buf).is_ok()
            && buf == &self.mirror[at..at + self.io_len]
    }

    /// Every page of the root against the mirror.
    fn sweep(&self, buf: &mut [u8]) -> bool {
        (0..ROOT_PAGES as u16).all(|vpn| self.reads_back(self.root, vpn, buf))
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::new();
        count_store(&mut c, &self.store.stats());
        count(&mut c, "gauge.live_frames", self.store.live_frames() as u64);
        c
    }

    /// Refcounts clean, only the root alive, frame count back at baseline.
    fn finish(self) -> u64 {
        failed_checks(&[
            (self.store.verify_refcounts().is_ok(), "verify_refcounts"),
            (self.store.world_count() == 1, "world_count back to 1"),
            (
                self.store.live_frames() == self.baseline_frames,
                "live_frames back to baseline",
            ),
            (
                self.sweep(&mut vec![0u8; self.io_len]),
                "root matches the mirror",
            ),
        ])
    }
}

/// The pagestore ladder and shares both store workloads use. The store
/// is the top layer here (the harness calls it directly), so its share is
/// what the spans around those calls cover; the rest is harness time.
fn store_ladder(seed: u64, p: &Probe, rep: &TracedRep, lv: &mut LayerValues, shape: &StoreShape) {
    probes::pagestore(p, lv, shape, seed);
    lv.set("pagestore.share", rep.share_of(Layer::Pagestore));
    let per_call = |fork: &str, adopt: &str, drop: &str| {
        rep.per_op("store.forks") * lv.get(fork)
            + rep.per_op("store.adopts") * lv.get(adopt)
            + rep.per_op("store.worlds_dropped") * lv.get(drop)
    };
    // The part of the round that follows the size of the page map: the
    // three calls at their clean-child cost.
    let map_calls_ns = per_call(
        "pagestore.fork_ns",
        "pagestore.adopt_clean_ns",
        "pagestore.drop_clean_ns_per_world",
    );
    // Probes are not subtracted from anything here; the excess metric
    // says whether they would fit inside the spans they model.
    let probes_ns = per_call(
        "pagestore.fork_ns",
        "pagestore.adopt_ns",
        "pagestore.drop_ns_per_world",
    ) + (rep.per_op("store.cow_faults") + rep.per_op("store.zero_fills"))
        * lv.get("pagestore.cow_write_ns")
        + (rep.per_op("store.writes")
            - rep.per_op("store.cow_faults")
            - rep.per_op("store.zero_fills"))
            * lv.get("pagestore.inplace_write_ns")
        + rep.per_op("store.reads") * lv.get("pagestore.read_ns");
    let span_ns = rep.op_ns * rep.share_of(Layer::Pagestore);
    lv.set("pagestore.map_calls_share", map_calls_ns / rep.op_ns);
    lv.set(
        "trace.probe_excess_pct",
        ((probes_ns - span_ns) / span_ns * 100.0).max(0.0),
    );
}

// ---------------------------------------------------------------- store_fork

const FORK_CHILDREN: usize = 4;
const FORK_WRITES: usize = 8;
const FORK_IO: usize = 64;
const FORK_BATCH: usize = 64;
const FORK_POOL: usize = 512;

struct ForkRound {
    vpns: [[u16; FORK_WRITES]; FORK_CHILDREN],
    payloads: [[u8; FORK_WRITES]; FORK_CHILDREN],
    winner: usize,
}

pub struct StoreFork {
    base: Rooted,
    rounds: Vec<ForkRound>,
}

impl Workload for StoreFork {
    const NAME: &'static str = "store_fork";

    fn build(seed: u64, rep: u64, obs: Option<Registry>) -> StoreFork {
        let mut rng = Rng::new(seed).stream(0xf04c_0000 + rep);
        let mut scratch: Vec<u16> = (0..ROOT_PAGES as u16).collect();
        let rounds = (0..FORK_POOL)
            .map(|_| {
                let mut r = ForkRound {
                    vpns: [[0; FORK_WRITES]; FORK_CHILDREN],
                    payloads: [[0; FORK_WRITES]; FORK_CHILDREN],
                    winner: rng.below(FORK_CHILDREN as u64) as usize,
                };
                for c in 0..FORK_CHILDREN {
                    r.vpns[c].copy_from_slice(&rng.sample_distinct(&mut scratch, FORK_WRITES));
                    for p in &mut r.payloads[c] {
                        *p = rng.below(PAYLOADS as u64) as u8;
                    }
                }
                r
            })
            .collect();
        StoreFork {
            base: Rooted::build(&mut rng, obs, FORK_IO),
            rounds,
        }
    }

    fn measure(&mut self, budget: Duration, tracing: Option<Instant>) -> Measured {
        let mut d = Driver::new("round", 0, budget, tracing);
        let mut buf = vec![0u8; FORK_IO];
        let (store, root) = (self.base.store.clone(), self.base.root);
        while d.has_budget() {
            for _ in 0..FORK_BATCH {
                let round = &self.rounds[d.ops() as usize % FORK_POOL];
                let mut ok = true;
                let mut kids = [root; FORK_CHILDREN];

                let op = d.start_op();
                for kid in &mut kids {
                    let s = d.tracer.begin("fork_world", Layer::Pagestore);
                    match store.fork_world(root) {
                        Ok(w) => *kid = w,
                        Err(_) => ok = false,
                    }
                    d.tracer.end(s);
                }
                for (c, &kid) in kids.iter().enumerate() {
                    let s = d.tracer.begin("write_x8", Layer::Pagestore);
                    for (&vpn, &p) in round.vpns[c].iter().zip(&round.payloads[c]) {
                        ok &= store
                            .write(kid, vpn as u64, 0, &self.base.payloads[p as usize])
                            .is_ok();
                    }
                    d.tracer.end(s);
                }
                let s = d.tracer.begin("adopt", Layer::Pagestore);
                ok &= store.adopt(root, kids[round.winner]).is_ok();
                d.tracer.end(s);
                let mut losers = [root; FORK_CHILDREN - 1];
                let mut n = 0;
                for (c, &kid) in kids.iter().enumerate() {
                    if c != round.winner {
                        losers[n] = kid;
                        n += 1;
                    }
                }
                let s = d.tracer.begin("drop_worlds", Layer::Pagestore);
                ok &= store.drop_worlds(&losers) == losers.len();
                d.tracer.end(s);
                d.finish_op(op);

                // The root now reads the winner's writes and nobody else's.
                let (vpns, payloads) = (round.vpns[round.winner], round.payloads[round.winner]);
                for (&vpn, &p) in vpns.iter().zip(&payloads) {
                    self.base.mirror_write(vpn, p);
                }
                ok &= vpns
                    .iter()
                    .all(|&vpn| self.base.reads_back(root, vpn, &mut buf));
                d.check(ok, "adopted writes read back");
            }
            // Losers' writes must not have leaked anywhere in the root.
            if !self.base.sweep(&mut buf) {
                d.fail("root diverged from the mirror");
            }
        }
        Measured::from(d)
    }

    fn settle(&mut self) {}

    fn counts(&self) -> Counts {
        self.base.counts()
    }

    fn finish(self) -> u64 {
        self.base.finish()
    }

    fn ladder(seed: u64, p: &Probe, rep: &TracedRep, lv: &mut LayerValues) {
        let shape = StoreShape {
            pages: ROOT_PAGES as u64,
            child_writes: FORK_WRITES,
            io_len: FORK_IO,
            drop_batch: FORK_CHILDREN - 1,
        };
        store_ladder(seed, p, rep, lv, &shape);
    }
}

// --------------------------------------------------------------- store_write

/// 0.4 of the root's pages: inside the paper's §3.4 write-fraction range.
const WRITE_PAGES: usize = 819;
const WRITE_IO: usize = 256;
const WRITE_BATCH: usize = 16;
const WRITE_POOL: usize = 64;

struct WriteRound {
    vpns: Vec<u16>,
    /// Payload of write `i` is `(first + i) % PAYLOADS`; the rewrite uses
    /// `again` the same way.
    first: u8,
    again: u8,
}

pub struct StoreWrite {
    base: Rooted,
    rounds: Vec<WriteRound>,
}

impl Workload for StoreWrite {
    const NAME: &'static str = "store_write";

    fn build(seed: u64, rep: u64, obs: Option<Registry>) -> StoreWrite {
        let mut rng = Rng::new(seed).stream(0x3417_0000 + rep);
        let mut scratch: Vec<u16> = (0..ROOT_PAGES as u16).collect();
        let rounds = (0..WRITE_POOL)
            .map(|_| WriteRound {
                vpns: rng.sample_distinct(&mut scratch, WRITE_PAGES),
                first: rng.below(PAYLOADS as u64) as u8,
                again: rng.below(PAYLOADS as u64) as u8,
            })
            .collect();
        StoreWrite {
            base: Rooted::build(&mut rng, obs, WRITE_IO),
            rounds,
        }
    }

    fn measure(&mut self, budget: Duration, tracing: Option<Instant>) -> Measured {
        let mut d = Driver::new("round", 0, budget, tracing);
        let mut seen = vec![0u8; ROOT_PAGES * WRITE_IO];
        let mut buf = vec![0u8; WRITE_IO];
        let (store, root) = (self.base.store.clone(), self.base.root);
        while d.has_budget() {
            for _ in 0..WRITE_BATCH {
                let round = &self.rounds[d.ops() as usize % WRITE_POOL];
                let payload = |start: u8, i: usize| (start as usize + i) % PAYLOADS;
                let mut ok = true;

                let op = d.start_op();
                let s = d.tracer.begin("fork_world", Layer::Pagestore);
                let child = store.fork_world(root);
                d.tracer.end(s);
                let Ok(child) = child else {
                    d.finish_op(op);
                    d.fail("fork_world");
                    continue;
                };
                let s = d.tracer.begin("cow_write_x819", Layer::Pagestore);
                for (i, &vpn) in round.vpns.iter().enumerate() {
                    let data = &self.base.payloads[payload(round.first, i)];
                    ok &= store.write(child, vpn as u64, 0, data).is_ok();
                }
                d.tracer.end(s);
                let s = d.tracer.begin("inplace_write_x819", Layer::Pagestore);
                for (i, &vpn) in round.vpns.iter().enumerate() {
                    let data = &self.base.payloads[payload(round.again, i)];
                    ok &= store.write(child, vpn as u64, 0, data).is_ok();
                }
                d.tracer.end(s);
                let s = d.tracer.begin("read_x2048", Layer::Pagestore);
                for (vpn, chunk) in seen.chunks_exact_mut(WRITE_IO).enumerate() {
                    ok &= store.read(child, vpn as u64, 0, chunk).is_ok();
                }
                d.tracer.end(s);
                let s = d.tracer.begin("adopt", Layer::Pagestore);
                ok &= store.adopt(root, child).is_ok();
                d.tracer.end(s);
                d.finish_op(op);

                // What the child read is the mirror after its rewrites,
                // and so is the root once it has adopted the child.
                let again = round.again;
                let vpns = round.vpns.clone();
                for (i, &vpn) in vpns.iter().enumerate() {
                    self.base.mirror_write(vpn, payload(again, i) as u8);
                }
                ok &= seen == self.base.mirror;
                ok &= vpns[..8]
                    .iter()
                    .all(|&vpn| self.base.reads_back(root, vpn, &mut buf));
                d.check(ok, "child reads and adopted root match the mirror");
            }
        }
        Measured::from(d)
    }

    fn settle(&mut self) {}

    fn counts(&self) -> Counts {
        self.base.counts()
    }

    fn finish(self) -> u64 {
        self.base.finish()
    }

    fn ladder(seed: u64, p: &Probe, rep: &TracedRep, lv: &mut LayerValues) {
        let shape = StoreShape {
            pages: ROOT_PAGES as u64,
            child_writes: WRITE_PAGES,
            io_len: WRITE_IO,
            drop_batch: 1,
        };
        store_ladder(seed, p, rep, lv, &shape);
    }
}
