//! `dist_block_tcp`: `Cluster::tcp` with two nodes and delta rfork on. An
//! op is one distributed block of three alternatives over a 256-page
//! (1 MiB) origin; each writes 512 B into the same eight hot vpns, alt 0
//! fails its guard and alt 1 wins on virtual time, so the delta against
//! the pinned base stays at eight pages and the run is stationary. Every
//! 8th block starts from a fresh origin: a 1 MiB full image ships and
//! the 64 MiB delta-base cache fills within two seconds and then churns. By construction `op_us_p50` is
//! the delta path and `op_us_p95` the full-image path: the large-frame
//! use of `net` (codec, CRC, checkpoint/restore) next to `session_tcp`'s
//! small frames.
//!
//! Plain runs call `run_distributed_block`; the traced repetition unrolls
//! the same block into the public `Cluster` calls it is made of, so each
//! can carry a span.

use std::sync::Arc;
use std::time::{Duration, Instant};

use worlds::sim::VirtualTime;
use worlds::Reaper;
use worlds_obs::Registry;
use worlds_remote::{
    run_distributed_block, Cluster, DistAlt, DistOutcome, NetModel, NodeId, RemoteWorld,
};

use crate::metrics::LayerValues;
use crate::probes::{self, StoreShape, PAGE};
use crate::protocol::{
    count, count_registry, count_store, failed_checks, split_shares, Counts, Driver, Measured,
    Probe, TracedRep, Workload,
};
use crate::rng::Rng;
use crate::trace::Layer;

const ORIGIN_PAGES: u64 = 256;
const HOT: usize = 8;
const IO: usize = 512;
const ALTS: usize = 3;
/// Blocks per origin; also the batch, so every batch ships one full image.
const BLOCKS_PER_ORIGIN: usize = 8;
const PAYLOADS: usize = 4096;
const WINNER: usize = 1;
const THERE: NodeId = NodeId(1);

/// Virtual compute per alternative: alt 0 is fastest but fails its guard,
/// so alt 1 is the earliest passing finisher.
fn compute(alt: usize) -> VirtualTime {
    VirtualTime::from_ms((alt + 1) as f64)
}

pub struct DistBlockTcp {
    cluster: Cluster,
    obs: Option<Registry>,
    rng: Rng,
    hot: [u64; HOT],
    payloads: Arc<Vec<Vec<u8>>>,
    origin: Option<RemoteWorld>,
    origins_made: u64,
}

impl DistBlockTcp {
    /// Payload alternative `alt` of block `n` writes into hot page `i`.
    fn payload_index(n: u64, alt: usize, i: usize) -> usize {
        (n as usize * 8 + alt * 97 + i) % PAYLOADS
    }

    /// Replace the origin with a fresh world of generated pages. The old
    /// one is dropped; its pinned base stays in the delta cache until the
    /// cache evicts it.
    fn fresh_origin(&mut self) -> RemoteWorld {
        if let Some(old) = self.origin.take() {
            self.cluster
                .origin()
                .store()
                .drop_world(old.world)
                .expect("old origin is live");
        }
        let origin = self.cluster.create_world(NodeId(0));
        let mut page = vec![0u8; PAGE];
        for vpn in 0..ORIGIN_PAGES {
            self.rng.fill(&mut page);
            self.cluster
                .write(origin, vpn, &page)
                .expect("origin is live");
        }
        self.origin = Some(origin);
        self.origins_made += 1;
        origin
    }

    /// The block as the library runs it.
    fn block_plain(&mut self, origin: RemoteWorld, n: u64) -> bool {
        let alts = (0..ALTS)
            .map(|alt| {
                let (hot, payloads) = (self.hot, self.payloads.clone());
                DistAlt::new(["alt0", "alt1", "alt2"][alt], compute(alt), move |c, w| {
                    for (i, &vpn) in hot.iter().enumerate() {
                        c.write(w, vpn, &payloads[Self::payload_index(n, alt, i)])
                            .expect("replica is live");
                    }
                })
                .guard(alt != 0)
            })
            .collect();
        match run_distributed_block(&mut self.cluster, origin, alts) {
            Ok(report) => {
                report.pages_shipped == HOT
                    && matches!(report.outcome, DistOutcome::Winner { index: WINNER, .. })
            }
            Err(e) => {
                eprintln!("block {n}: {e}");
                false
            }
        }
    }

    /// The same block from the public `Cluster` calls, one span each.
    fn block_unrolled(&mut self, d: &mut Driver, origin: RemoteWorld, n: u64) -> bool {
        let c = &mut self.cluster;
        let mut replicas = Vec::with_capacity(ALTS);
        for _ in 0..ALTS {
            let s = d.tracer.begin("rfork", Layer::Remote);
            let replica = c.rfork(origin, THERE);
            d.tracer.end(s);
            match replica {
                Ok((r, _)) => replicas.push(r),
                Err(_) => return false,
            }
        }
        let mut ok = true;
        for (alt, &replica) in replicas.iter().enumerate() {
            let s = d.tracer.begin("mutate", Layer::Remote);
            for (i, &vpn) in self.hot.iter().enumerate() {
                let data = &self.payloads[Self::payload_index(n, alt, i)];
                ok &= c.write(replica, vpn, data).is_ok();
            }
            d.tracer.end(s);
        }
        let s = d.tracer.begin("commit_back", Layer::Remote);
        ok &= c
            .commit_back(origin, replicas[WINNER])
            .is_ok_and(|(_, pages)| pages == HOT);
        d.tracer.end(s);
        for (alt, &replica) in replicas.iter().enumerate() {
            if alt != WINNER {
                let s = d.tracer.begin("discard", Layer::Remote);
                ok &= c.discard(replica).is_ok();
                d.tracer.end(s);
            }
        }
        ok
    }
}

impl Workload for DistBlockTcp {
    const NAME: &'static str = "dist_block_tcp";

    fn build(seed: u64, rep: u64, obs: Option<Registry>) -> DistBlockTcp {
        let mut rng = Rng::new(seed).stream(0xd157_0000 + rep);
        let mut scratch: Vec<u16> = (0..ORIGIN_PAGES as u16).collect();
        let hot: Vec<u64> = rng
            .sample_distinct(&mut scratch, HOT)
            .into_iter()
            .map(u64::from)
            .collect();
        let payloads = (0..PAYLOADS)
            .map(|_| {
                let mut p = vec![0u8; IO];
                rng.fill(&mut p);
                p
            })
            .collect();
        let registry = obs.clone().unwrap_or_else(Registry::disabled);
        let mut cluster =
            Cluster::tcp(2, PAGE, NetModel::ideal(), registry).expect("bind loopback");
        cluster.set_delta_rfork(true);
        // Delta rfork arms the content index on every node, and then the
        // second and third rfork of a block ship 17-byte *refs* to the pages
        // the first one left on the receiver. Restoring such an image can
        // evict its own ref targets from the receiver's direct-mapped index
        // (an inline page of the image sealing into the slot of a page a
        // later ref needs), the receiver nacks `content ref not present`,
        // and `Cluster::rfork` has no fallback: about one block in a
        // thousand fails, deterministically by content. A workload must not
        // fail, so the receiving store's index stays off here: every probe
        // answers "absent" and deltas carry their eight pages inline.
        cluster.node(THERE).store().set_dedupe(false);
        DistBlockTcp {
            cluster,
            obs,
            rng,
            hot: hot.try_into().expect("eight hot pages"),
            payloads: Arc::new(payloads),
            origin: None,
            origins_made: 0,
        }
    }

    fn measure(&mut self, budget: Duration, tracing: Option<Instant>) -> Measured {
        let mut d = Driver::new("block", 0, budget, tracing);
        while d.has_budget() {
            let origin = self.fresh_origin();
            for _ in 0..BLOCKS_PER_ORIGIN {
                let n = d.ops();
                let op = d.start_op();
                let mut ok = if tracing.is_some() {
                    self.block_unrolled(&mut d, origin, n)
                } else {
                    self.block_plain(origin, n)
                };
                d.finish_op(op);
                // The origin reads back the winner's bytes.
                for (i, &vpn) in self.hot.iter().enumerate() {
                    let want = &self.payloads[Self::payload_index(n, WINNER, i)];
                    ok &= self
                        .cluster
                        .read(origin, vpn, IO)
                        .is_ok_and(|got| &got == want);
                }
                d.check(
                    ok,
                    "alt 1 wins, 8 pages ship, origin reads the winner's bytes",
                );
            }
        }
        Measured::from(d)
    }

    fn settle(&mut self) {
        Reaper::global().drain();
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::new();
        for node in [NodeId(0), THERE] {
            let node = self.cluster.node(node);
            count_store(&mut c, &node.store().stats());
            count(&mut c, "remote.bytes_sent", node.bytes_sent());
            count(
                &mut c,
                "gauge.live_frames",
                node.store().live_frames() as u64,
            );
        }
        if let Some(obs) = &self.obs {
            count_registry(&mut c, obs);
        }
        let sent = c["remote.bytes_sent"];
        count(&mut c, "wire.bytes", sent);
        count(&mut c, "remote.full_ships", self.origins_made);
        count(
            &mut c,
            "remote.cache_evictions",
            self.cluster.net_cache_stats().0,
        );
        count(
            &mut c,
            "gauge.cache_resident_bytes",
            self.cluster.net_cache_resident_bytes(),
        );
        c
    }

    fn finish(mut self) -> u64 {
        // Turning delta rfork off releases every pinned base.
        self.cluster.set_delta_rfork(false);
        let mut failed = 0;
        if let Some(origin) = self.origin.take() {
            let dropped = self.cluster.origin().store().drop_world(origin.world);
            failed += dropped.is_err() as u64;
        }
        Reaper::global().drain();
        for node in [NodeId(0), THERE] {
            let store = self.cluster.node(node).store();
            failed += failed_checks(&[
                (store.verify_refcounts().is_ok(), "verify_refcounts"),
                (store.world_count() == 0, "world_count back to 0"),
                (store.live_frames() == 0, "live_frames back to 0"),
            ]);
        }
        failed
    }

    fn ladder(seed: u64, p: &Probe, rep: &TracedRep, lv: &mut LayerValues) {
        let hot: Vec<u64> = (0..HOT as u64)
            .map(|i| i * (ORIGIN_PAGES / HOT as u64))
            .collect();
        let shape = StoreShape {
            pages: ORIGIN_PAGES,
            child_writes: HOT,
            io_len: IO,
            drop_batch: ALTS - 1,
        };
        probes::pagestore(p, lv, &shape, seed);
        probes::checkpoints(p, lv, ORIGIN_PAGES, &hot, seed);
        probes::net(p, lv, ORIGIN_PAGES as usize * (PAGE + 8));
        probes::remote(p, lv, ORIGIN_PAGES, &hot, seed);

        // `remote` is the top layer; what it spends below itself is
        // modelled per frame and per byte (net) and per page (pagestore):
        //   net: one empty-frame round trip per frame sent, plus every
        //        wire byte once through the encoder and once through the
        //        decoder (CRC included in both);
        //   pagestore: a full image checkpoints and restores every page
        //        of the origin, a delta ship diffs and encodes the hot
        //        pages and the receiver restores them, and commit-back
        //        compares the replica with the origin page by page.
        let full = rep.per_op("remote.full_ships");
        let deltas = ALTS as f64;
        let wire_mb = rep.per_op("net.wire_bytes_sent") / 1e6;
        let net_ns = rep.per_op("net.frames_sent") * lv.get("net.ping_rtt_ns")
            + wire_mb / lv.get("net.encode_large_mb_s") * 1e9
            + wire_mb / lv.get("net.decode_large_mb_s") * 1e9;
        let pages = ORIGIN_PAGES as f64;
        let pagestore_ns = full
            * pages
            * (lv.get("pagestore.checkpoint_ns_per_page")
                + lv.get("pagestore.restore_ns_per_page"))
            + deltas
                * HOT as f64
                * (lv.get("pagestore.delta_ns_per_dirty_page")
                    + lv.get("pagestore.restore_ns_per_page"))
            + 2.0 * pages * lv.get("pagestore.read_ns")
            + rep.per_op("store.forks") * lv.get("pagestore.fork_ns")
            + rep.per_op("store.worlds_dropped") * lv.get("pagestore.drop_ns_per_world");
        split_shares(
            lv,
            rep,
            Layer::Remote,
            rep.op_ns * (1.0 - rep.share_of(Layer::Harness)),
            &[(Layer::Net, net_ns), (Layer::Pagestore, pagestore_ns)],
        );
    }
}
