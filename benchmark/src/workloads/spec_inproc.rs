//! `spec_inproc`: one thread drives `Speculation::run` on a 20-cell
//! world. Each block has three alternatives that `put_u64` one cell each;
//! two pass their at-sync guard and one (which, by seed) fails it. Worlds
//! are tiny, so the decided/winner/finished handshake of `core` and the
//! dispatch and reaping of `exec` are nearly all of a block and the page
//! store almost none: the workload that shows a change to the commit
//! protocol or the pool, and stays flat under a page-map change.

use std::time::{Duration, Instant};

use worlds::{AltBlock, Alternative, Reaper, RunOutcome, Speculation};
use worlds_obs::Registry;
use worlds_pagestore::PAGE_SIZE_DEFAULT;

use crate::metrics::LayerValues;
use crate::probes::{self, StoreShape};
use crate::protocol::{
    count, count_registry, count_store, failed_checks, split_shares, Counts, Driver, Measured,
    Probe, TracedRep, Workload,
};
use crate::rng::Rng;
use crate::trace::Layer;

const CELLS: [&str; 20] = [
    "c00", "c01", "c02", "c03", "c04", "c05", "c06", "c07", "c08", "c09", "c10", "c11", "c12",
    "c13", "c14", "c15", "c16", "c17", "c18", "c19",
];
const LABELS: [&str; 3] = ["alt0", "alt1", "alt2"];
const BATCH: usize = 256;
const POOL: usize = 4096;

struct Block {
    /// The cell each alternative writes (distinct within a block).
    cells: [u16; 3],
    /// The alternative whose guard fails.
    fails: usize,
}

pub struct SpecInproc {
    spec: Speculation,
    obs: Option<Registry>,
    blocks: Vec<Block>,
    mirror: [u64; CELLS.len()],
    baseline_frames: usize,
    pages_dirtied: u64,
    alts_reported: u64,
}

impl SpecInproc {
    fn cell(&self, i: u16) -> Option<u64> {
        self.spec.read(|ctx| ctx.get_u64(CELLS[i as usize]))
    }
}

impl Workload for SpecInproc {
    const NAME: &'static str = "spec_inproc";

    fn build(seed: u64, rep: u64, obs: Option<Registry>) -> SpecInproc {
        let mut rng = Rng::new(seed).stream(0x59ec_0000 + rep);
        let mut scratch: Vec<u16> = (0..CELLS.len() as u16).collect();
        let blocks = (0..POOL)
            .map(|_| Block {
                cells: rng
                    .sample_distinct(&mut scratch, 3)
                    .try_into()
                    .expect("three cells"),
                fails: rng.below(3) as usize,
            })
            .collect();
        // Untraced: the constructor users call, environment defaults and all.
        let spec = match &obs {
            Some(obs) => Speculation::with_obs(PAGE_SIZE_DEFAULT, obs.clone()),
            None => Speculation::new(),
        };
        let mut mirror = [0u64; CELLS.len()];
        spec.setup(|ctx| {
            for (name, slot) in CELLS.iter().zip(&mut mirror) {
                *slot = rng.next_u64() | 1;
                ctx.put_u64(name, *slot)?;
            }
            Ok(())
        })
        .expect("fresh cells");
        let baseline_frames = spec.store().live_frames();
        SpecInproc {
            spec,
            obs,
            blocks,
            mirror,
            baseline_frames,
            pages_dirtied: 0,
            alts_reported: 0,
        }
    }

    fn measure(&mut self, budget: Duration, tracing: Option<Instant>) -> Measured {
        let mut d = Driver::new("block", 0, budget, tracing);
        while d.has_budget() {
            for _ in 0..BATCH {
                let n = d.ops();
                let block = &self.blocks[n as usize % POOL];
                let (cells, fails) = (block.cells, block.fails);
                // Unique per (block, alternative), never a mirror value.
                let value = |alt: usize| (n + 1) << 2 | alt as u64;
                let mut alts = AltBlock::new();
                for alt in 0..3 {
                    let (name, v) = (CELLS[cells[alt] as usize], value(alt));
                    alts = alts.alternative(
                        Alternative::new(LABELS[alt], move |ctx| {
                            ctx.put_u64(name, v)?;
                            Ok(v)
                        })
                        .guard(move |_| alt != fails),
                    );
                }

                let op = d.start_op();
                let s = d.tracer.begin("run", Layer::Core);
                let report = self.spec.run(alts);
                d.tracer.end(s);
                d.finish_op(op);

                for run in &report.alts {
                    if let Some(p) = run.pages_dirtied {
                        self.pages_dirtied += p;
                        self.alts_reported += 1;
                    }
                }
                let RunOutcome::Winner { index, .. } = report.outcome else {
                    d.fail("no alternative won");
                    continue;
                };
                // The winner's cell holds its value; the losers' cells
                // are as they were.
                let mut ok = index != fails && report.value == Some(value(index));
                self.mirror[cells[index] as usize] = value(index);
                for &c in &cells {
                    ok &= self.cell(c) == Some(self.mirror[c as usize]);
                }
                d.check(
                    ok,
                    "committed cell is the winner's, losers' cells untouched",
                );
            }
        }
        Measured::from(d)
    }

    fn settle(&mut self) {
        // Losers still running when their block was decided hand their
        // world to the reaper when they finish: wait for those too.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            Reaper::global().drain();
            if self.spec.store().world_count() == 1 || Instant::now() > deadline {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::new();
        count_store(&mut c, &self.spec.store().stats());
        if let Some(obs) = &self.obs {
            count_registry(&mut c, obs);
        }
        count(&mut c, "core.pages_dirtied", self.pages_dirtied);
        count(&mut c, "core.alts_reported", self.alts_reported);
        count(
            &mut c,
            "gauge.live_frames",
            self.spec.store().live_frames() as u64,
        );
        c
    }

    fn finish(self) -> u64 {
        let store = self.spec.store();
        failed_checks(&[
            (store.verify_refcounts().is_ok(), "verify_refcounts"),
            (store.world_count() == 1, "world_count back to 1"),
            (
                store.live_frames() == self.baseline_frames,
                "live_frames back to baseline",
            ),
            (
                (0..CELLS.len() as u16).all(|c| self.cell(c) == Some(self.mirror[c as usize])),
                "cells match the mirror",
            ),
        ])
    }

    fn ladder(seed: u64, p: &Probe, rep: &TracedRep, lv: &mut LayerValues) {
        // A cell is one page; put_u64 writes it twice (length, value).
        let shape = StoreShape {
            pages: CELLS.len() as u64,
            child_writes: 1,
            io_len: 8,
            drop_batch: 2,
        };
        probes::pagestore(p, lv, &shape, seed);
        probes::exec(p, lv, &shape, seed);

        // On the block's critical path: three forks, the alternatives'
        // writes, the adopt, and one dispatch-and-join of three tasks.
        // Dropping the losers is the reaper's (asynchronous elimination)
        // and the store's reads are all the harness's own checks, so
        // neither is charged to the block.
        let faults = rep.per_op("store.cow_faults") + rep.per_op("store.zero_fills");
        let pagestore_ns = rep.per_op("store.forks") * lv.get("pagestore.fork_ns")
            + faults * lv.get("pagestore.cow_write_ns")
            + (rep.per_op("store.writes") - faults) * lv.get("pagestore.inplace_write_ns")
            + rep.per_op("store.adopts") * lv.get("pagestore.adopt_ns");
        let exec_ns = lv.get("exec.scope3_ns");
        let run_ns = rep.span_ns(Layer::Core, "run");
        let (self_ns, _) = split_shares(
            lv,
            rep,
            Layer::Core,
            rep.op_ns * (1.0 - rep.share_of(Layer::Harness)),
            &[(Layer::Pagestore, pagestore_ns), (Layer::Exec, exec_ns)],
        );
        lv.set("core.run_ns", run_ns);
        lv.set("core.self_ns", self_ns);
    }
}
