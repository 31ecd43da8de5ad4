//! `bench-baseline` — record the pagestore performance trajectory.
//!
//! Runs the contention workload (4 worlds, disjoint pages, real threads)
//! against the sharded store and the preserved global-lock baseline, plus
//! single-world fork and CoW-fault latencies, and writes the results as
//! `BENCH_pagestore.json` (or the path given as the first argument).
//!
//! ```text
//! cargo run --release -p worlds-bench --bin bench-baseline [out.json]
//! ```

use std::time::Instant;

use worlds_bench::baseline::GlobalLockStore;
use worlds_bench::contention::{best_throughput, ContentionConfig, CowStore};
use worlds_bench::dedupe::{rewrite_ns, sibling_dedupe_ratio, unique_write_ns, DedupeConfig};
use worlds_pagestore::PageStore;

/// Median per-iteration nanoseconds of `op`, sampled `samples` times with
/// `iters` iterations per sample.
fn median_ns(samples: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn fork_latency_ns<S: CowStore>(store: &S, pages: u64) -> f64 {
    let parent = store.create_world();
    for vpn in 0..pages {
        store.write(parent, vpn, 0, &[1]);
    }
    median_ns(30, 200, || {
        let child = store.fork_world(parent);
        store.drop_world(child);
    })
}

fn cow_fault_ns<S: CowStore>(store: &S) -> f64 {
    let parent = store.create_world();
    store.write(parent, 0, 0, &[1]);
    median_ns(30, 200, || {
        let child = store.fork_world(parent);
        store.write(child, 0, 0, &[2]);
        store.drop_world(child);
    })
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pagestore.json".to_string());
    let cfg = ContentionConfig::default();
    let reps = 5;

    eprintln!(
        "contention workload: {} worlds x {} pages x {} rounds ({} writes/run, best of {reps})",
        cfg.worlds,
        cfg.pages_per_world,
        cfg.rounds,
        cfg.total_writes()
    );

    let global = best_throughput(&GlobalLockStore::new(cfg.page_size), &cfg, reps);
    eprintln!("global_lock: {global:.0} writes/s");
    let sharded = best_throughput(&PageStore::new(cfg.page_size), &cfg, reps);
    eprintln!("sharded:     {sharded:.0} writes/s");
    let speedup = sharded / global;
    eprintln!("speedup:     {speedup:.2}x");

    let fork_ns = fork_latency_ns(&PageStore::new(2048), 160);
    let cow_ns = cow_fault_ns(&PageStore::new(4096));
    let base_fork_ns = fork_latency_ns(&GlobalLockStore::new(2048), 160);
    let base_cow_ns = cow_fault_ns(&GlobalLockStore::new(4096));
    let fork_ratio = fork_ns / base_fork_ns;
    eprintln!(
        "fork_world(160 pages): {fork_ns:.0} ns (global_lock {base_fork_ns:.0} ns, \
         {fork_ratio:.2}x, ROADMAP target <= 1.2)"
    );
    eprintln!("cow_fault(4 KiB):      {cow_ns:.0} ns (global_lock {base_cow_ns:.0} ns)");

    // Content dedupe: savings on converging siblings, cost on misses.
    let dcfg = DedupeConfig::default();
    let (dedupe_ratio, dedupe_hits) = sibling_dedupe_ratio(&dcfg);
    let seal_ns_plain = unique_write_ns(false, 15, 512, 2048);
    let seal_ns_indexed = unique_write_ns(true, 15, 512, 2048);
    let rewrite_ns_plain = rewrite_ns(false, 30, 4096, 2048);
    let rewrite_ns_indexed = rewrite_ns(true, 30, 4096, 2048);
    let write_overhead = rewrite_ns_indexed / rewrite_ns_plain;
    eprintln!(
        "dedupe: {} siblings x {} pages -> {dedupe_ratio:.2}x resident ({dedupe_hits} re-shares)",
        dcfg.siblings, dcfg.pages
    );
    eprintln!(
        "seal, all-miss: {seal_ns_plain:.0} ns plain, {seal_ns_indexed:.0} ns indexed \
         (the budgeted hash+probe cost)"
    );
    eprintln!(
        "rewrite fast path: {rewrite_ns_plain:.0} ns plain, {rewrite_ns_indexed:.0} ns indexed \
         ({write_overhead:.3}x, gate <= 1.10)"
    );

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
            "  \"bench\": \"pagestore_contention\",\n",
            "  \"unix_time\": {unix_time},\n",
            "  \"effective_cores\": {cores},\n",
            "  \"config\": {{\"worlds\": {worlds}, \"pages_per_world\": {pages}, ",
            "\"rounds\": {rounds}, \"page_size\": {page_size}}},\n",
            "  \"global_lock_writes_per_sec\": {global:.0},\n",
            "  \"sharded_writes_per_sec\": {sharded:.0},\n",
            "  \"speedup\": {speedup:.3},\n",
            "  \"sharded\": {{\"fork_world_160_pages_ns\": {fork_ns:.0}, ",
            "\"cow_fault_4k_ns\": {cow_ns:.0}}},\n",
            "  \"global_lock\": {{\"fork_world_160_pages_ns\": {base_fork_ns:.0}, ",
            "\"cow_fault_4k_ns\": {base_cow_ns:.0}}},\n",
            "  \"fork_ratio\": {fork_ratio:.3},\n",
            "  \"dedupe_ratio\": {dedupe_ratio:.3},\n",
            "  \"dedupe\": {{\"siblings\": {dsiblings}, \"pages\": {dpages}, ",
            "\"re_shares\": {dedupe_hits}, \"seal_ns_plain\": {seal_ns_plain:.0}, ",
            "\"seal_ns_indexed\": {seal_ns_indexed:.0}, ",
            "\"rewrite_ns_plain\": {rewrite_ns_plain:.0}, ",
            "\"rewrite_ns_indexed\": {rewrite_ns_indexed:.0}, ",
            "\"write_overhead\": {write_overhead:.3}}},\n",
            "  \"note\": \"speedup is thread-parallel throughput; on a ",
            "single-core host (effective_cores=1) the sharded store cannot ",
            "exceed the uncontended global lock and the number reflects ",
            "per-op overhead only\"\n",
            "}}\n",
        ),
        unix_time = unix_time,
        cores = cores,
        worlds = cfg.worlds,
        pages = cfg.pages_per_world,
        rounds = cfg.rounds,
        page_size = cfg.page_size,
        global = global,
        sharded = sharded,
        speedup = speedup,
        fork_ns = fork_ns,
        cow_ns = cow_ns,
        base_fork_ns = base_fork_ns,
        base_cow_ns = base_cow_ns,
        fork_ratio = fork_ratio,
        dedupe_ratio = dedupe_ratio,
        dsiblings = dcfg.siblings,
        dpages = dcfg.pages,
        dedupe_hits = dedupe_hits,
        seal_ns_plain = seal_ns_plain,
        seal_ns_indexed = seal_ns_indexed,
        rewrite_ns_plain = rewrite_ns_plain,
        rewrite_ns_indexed = rewrite_ns_indexed,
        write_overhead = write_overhead,
    );
    std::fs::write(&out, &json).expect("write results file");
    println!("wrote {out}");
}
