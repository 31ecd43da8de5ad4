//! `bench-exec` — what the persistent executor buys.
//!
//! Two measurements, two claims of the worlds-exec PR:
//!
//! * **Block throughput** — the same speculation workload (3-alternative
//!   blocks, synchronous elimination) driven through the pooled executor
//!   and through the old thread-per-alternative dispatcher
//!   ([`Speculation::with_thread_per_alt`]). In both modes the calling thread runs
//!   the first alternative itself, so a block dispatches N−1 = 2: pool
//!   tasks in one, fresh OS threads in the other. The pooled number
//!   should win: a dispatch costs a queue push instead of OS thread
//!   creation and teardown.
//! * **Batched elimination** — tearing down a cohort of losing worlds
//!   through the background [`Reaper`] (one `drop_worlds` batch, one
//!   recycler acquisition) versus a `drop_world` loop (one acquisition
//!   per world). Reported as recycler lock acquisitions *per eliminated
//!   world* from the store's exact `recycler_locks` counter.
//!
//! Results land in `BENCH_exec.json` (or the path given as the first
//! non-flag argument). `--smoke` shrinks every knob for CI.
//!
//! ```text
//! cargo run --release -p worlds-bench --bin bench-exec [out.json] [--smoke]
//! ```
//!
//! [`Speculation::with_thread_per_alt`]: worlds::Speculation::with_thread_per_alt

use std::time::Instant;

use worlds::{AltBlock, AltError, ElimMode, Executor, Reaper, Speculation};
use worlds_pagestore::{PageStore, WorldId};

/// Drive `blocks` sequential 3-alternative blocks (one instant winner,
/// two quick failures) through `spec` and return blocks/second.
fn block_throughput(spec: &Speculation, blocks: usize) -> f64 {
    spec.setup(|c| c.put_u64("cell", 0)).unwrap();
    let t0 = Instant::now();
    for i in 0..blocks {
        let r = spec.run(
            AltBlock::new()
                .alt("winner", move |ctx| {
                    ctx.put_u64("cell", i as u64)?;
                    Ok(i as u64)
                })
                .alt("loser-a", |_| Err(AltError::GuardFailed("no".into())))
                .alt("loser-b", |_| Err(AltError::GuardFailed("no".into())))
                .elim(ElimMode::Sync),
        );
        assert!(r.succeeded(), "bench block must commit");
        std::hint::black_box(r.value);
    }
    blocks as f64 / t0.elapsed().as_secs_f64()
}

/// Median blocks/sec over `samples` runs on a fresh session each time.
fn median_throughput(samples: usize, blocks: usize, make: impl Fn() -> Speculation) -> f64 {
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| block_throughput(&make(), blocks))
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

/// A store with `k` forked worlds off one root, each holding `pages`
/// private frames — the cohort a decided block leaves behind.
fn cohort(k: usize, pages: usize) -> (PageStore, Vec<WorldId>) {
    let store = PageStore::new(4096);
    let root = store.create_world();
    store.write(root, 0, 0, &[1u8; 64]).unwrap();
    let losers: Vec<WorldId> = (0..k)
        .map(|i| {
            let w = store.fork_world(root).unwrap();
            for j in 0..pages {
                let vpn = 1 + (i * pages + j) as u64;
                store.write(w, vpn, 0, &[2u8; 64]).unwrap();
            }
            w
        })
        .collect();
    (store, losers)
}

/// Recycler lock acquisitions per eliminated world, batched (reaper) vs
/// the per-world `drop_world` loop.
fn elimination_locks(k: usize, pages: usize) -> (f64, f64) {
    let (store, losers) = cohort(k, pages);
    let before = store.stats();
    let reaper = Reaper::new(k);
    reaper.enqueue_many(&store, &losers);
    reaper.drain();
    reaper.shutdown();
    let batched = store.stats().delta_since(&before).recycler_locks as f64 / k as f64;
    assert_eq!(store.world_count(), 1, "reaper must tear down the cohort");

    let (store, losers) = cohort(k, pages);
    let before = store.stats();
    for w in &losers {
        store.drop_world(*w).unwrap();
    }
    let per_world = store.stats().delta_since(&before).recycler_locks as f64 / k as f64;
    (batched, per_world)
}

fn main() {
    let mut out = "BENCH_exec.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out = arg;
        }
    }
    let (samples, blocks, k, pages) = if smoke {
        (3, 40, 16, 4)
    } else {
        (7, 300, 64, 8)
    };

    eprintln!("block throughput: {blocks} blocks/run, median of {samples} runs");
    let pool = Executor::new(4);
    let pooled = median_throughput(samples, blocks, || {
        Speculation::new().with_executor(pool.clone())
    });
    eprintln!("pooled:          {pooled:.0} blocks/sec");
    let threaded = median_throughput(samples, blocks, || Speculation::new().with_thread_per_alt());
    eprintln!("thread-per-alt:  {threaded:.0} blocks/sec");
    pool.shutdown();

    let (batched_locks, per_world_locks) = elimination_locks(k, pages);
    eprintln!("elimination of {k} worlds x {pages} pages:");
    eprintln!("  batched reaper: {batched_locks:.3} recycler locks/world");
    eprintln!("  drop_world loop: {per_world_locks:.3} recycler locks/world");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"exec\",\n",
            "  \"unix_time\": {unix_time},\n",
            "  \"effective_cores\": {cores},\n",
            "  \"smoke\": {smoke},\n",
            "  \"config\": {{\"samples\": {samples}, \"blocks_per_run\": {blocks}, ",
            "\"alts_per_block\": 3, \"pool_workers\": 4, ",
            "\"elim_worlds\": {k}, \"pages_per_world\": {pages}}},\n",
            "  \"block_throughput\": {{\n",
            "    \"pooled_blocks_per_sec\": {pooled:.1},\n",
            "    \"thread_per_alt_blocks_per_sec\": {threaded:.1},\n",
            "    \"pooled_speedup\": {speedup:.3}\n",
            "  }},\n",
            "  \"batched_elimination\": {{\n",
            "    \"batched_recycler_locks_per_world\": {batched:.4},\n",
            "    \"drop_world_loop_recycler_locks_per_world\": {per_world:.4},\n",
            "    \"lock_reduction_factor\": {reduction:.1}\n",
            "  }},\n",
            "  \"note\": \"single-core container (effective_cores=1): the pooled ",
            "win measures dispatch overhead avoided (thread create/join per ",
            "alternative), not parallel speedup; on real multi-core hosts the ",
            "pool additionally overlaps alternatives\"\n",
            "}}\n",
        ),
        unix_time = unix_time,
        cores = cores,
        smoke = smoke,
        samples = samples,
        blocks = blocks,
        k = k,
        pages = pages,
        pooled = pooled,
        threaded = threaded,
        speedup = pooled / threaded,
        batched = batched_locks,
        per_world = per_world_locks,
        reduction = per_world_locks / batched_locks.max(1e-9),
    );
    std::fs::write(&out, &json).expect("write results file");
    println!("wrote {out}");
}
