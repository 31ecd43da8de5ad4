//! `bench-prof` — what the sampling profiler costs, and that its
//! watchdog works.
//!
//! Three measurements, three claims of the worlds-prof PR:
//!
//! * **Marker transition cost** — publishing a `(world, site, alt,
//!   phase)` tuple through the seqlock slot ([`mark_always`], the path
//!   every phase boundary pays while a sampler is attached), and the
//!   gated [`mark`] with no reader (the path everyone else pays: one
//!   relaxed load). Budget: ≤ 20 ns per enabled transition.
//! * **Sampler throughput tax** — the bench-exec block workload with
//!   and without a 997 Hz sampler attached. The sampler adds marker
//!   writes on every phase boundary plus one watcher thread; the
//!   regression budget is 5%.
//! * **Wedge smoke** — an artificial wedge (a marker parked in `Guard`
//!   past its deadline) must produce exactly one `Stall` event and one
//!   flight-recorder dump whose every line replays as a valid event.
//!
//! Results land in `BENCH_prof.json` (or the path given as the first
//! non-flag argument). `--smoke` shrinks every knob for CI.
//!
//! ```text
//! cargo run --release -p worlds-bench --bin bench-prof [out.json] [--smoke]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use worlds::{AltBlock, AltError, ElimMode, Executor, Speculation};
use worlds_obs::prof::{mark, mark_always, mark_idle, Phase, Sampler, SamplerConfig};
use worlds_obs::{Event, EventKind, EventSink, Registry};
use worlds_telemetry::TelemetryHub;

/// Nanoseconds per call over `iters` alternating marker transitions.
/// Alternating tuples defeat any same-value store elision; `black_box`
/// keeps the loop counter honest.
fn marker_transition_ns(iters: u64, f: impl Fn(u64)) -> f64 {
    // Warm up: first call claims the thread's slot (a mutex + alloc).
    f(0);
    let t0 = Instant::now();
    for i in 0..iters {
        f(std::hint::black_box(i));
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    // Unconditional reset: the gated `mark_idle` would no-op with no
    // reader attached and leave this thread's slot published, which the
    // wedge-smoke watchdog later would misread as a real stall.
    mark_always(None, None, None, Phase::Idle);
    ns
}

/// A short guard-sized computation — the work a real alternative does
/// between its marker transitions (bench-exec's empty alternatives
/// measure dispatch, but a sampler tax against zero-work blocks would
/// measure the marker share of an empty block, which no workload has).
#[inline]
fn guard_work(iters: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x ^= x >> 29;
    }
    std::hint::black_box(x)
}

/// One run of the speculation workload: 3-alternative blocks (one
/// winner with a guard-sized computation, two failures that compute a
/// short check first), synchronous elimination, pooled executor.
/// Returns blocks/sec. The session is shared across runs — rebuilding
/// it per run drags allocator state into the measurement.
fn block_throughput(blocks: usize, spec: &Speculation) -> f64 {
    let t0 = Instant::now();
    for i in 0..blocks {
        let r = spec.run(
            AltBlock::new()
                .alt("winner", move |ctx| {
                    let v = guard_work(4000, i as u64);
                    ctx.put_u64("cell", v)?;
                    Ok(v)
                })
                .alt("loser-a", move |_| {
                    guard_work(1000, i as u64);
                    Err(AltError::GuardFailed("no".into()))
                })
                .alt("loser-b", move |_| {
                    guard_work(1000, i as u64);
                    Err(AltError::GuardFailed("no".into()))
                })
                .elim(ElimMode::Sync),
        );
        assert!(r.succeeded(), "bench block must commit");
        std::hint::black_box(r.value);
    }
    blocks as f64 / t0.elapsed().as_secs_f64()
}

fn median(mut rates: Vec<f64>) -> f64 {
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

struct Overhead {
    baseline: f64,
    sampled: f64,
    /// Median of per-pair off/on throughput ratios, as a percentage.
    regression_pct: f64,
    /// Median of off/off control pairs — what the host's own noise
    /// reports as "regression" when nothing changed.
    noise_floor_pct: f64,
}

/// Sampler tax via paired ratios on one warm session. Each pair runs
/// the workload once per mode back-to-back (order alternating) and
/// contributes one off/on ratio; the median ratio cancels the drift
/// and co-tenant noise of a shared CI host that comparing two long
/// batches would attribute to the sampler. Off/off control pairs,
/// interleaved with the measured ones, report the remaining noise
/// floor so the headline number can be read against it.
fn sampler_overhead(pairs: usize, blocks: usize, pool: &Executor) -> Overhead {
    let spec = Speculation::new().with_executor(pool.clone());
    spec.setup(|c| c.put_u64("cell", 0)).unwrap();
    // Warm-up: page in the pool, the recycler, and the marker slots.
    block_throughput(blocks, &spec);
    {
        let _sampler = Sampler::start(SamplerConfig::default(), Registry::disabled(), None);
        block_throughput(blocks, &spec);
    }
    let mut ratios = Vec::with_capacity(pairs);
    let mut base = Vec::with_capacity(pairs);
    let mut sampled = Vec::with_capacity(pairs);
    let mut null_ratios = Vec::with_capacity(pairs / 2);
    for i in 0..pairs {
        // Default config is the documented 997 Hz; the registry is
        // disabled so we charge the marker+watcher tax, not event I/O.
        let (off, on);
        if i % 2 == 0 {
            off = block_throughput(blocks, &spec);
            let _s = Sampler::start(SamplerConfig::default(), Registry::disabled(), None);
            on = block_throughput(blocks, &spec);
        } else {
            let s = Sampler::start(SamplerConfig::default(), Registry::disabled(), None);
            on = block_throughput(blocks, &spec);
            drop(s);
            off = block_throughput(blocks, &spec);
        }
        ratios.push(off / on);
        base.push(off);
        sampled.push(on);
        if i % 2 == 0 {
            let a = block_throughput(blocks, &spec);
            let b = block_throughput(blocks, &spec);
            null_ratios.push(a / b);
        }
    }
    Overhead {
        baseline: median(base),
        sampled: median(sampled),
        regression_pct: 100.0 * (median(ratios) - 1.0),
        noise_floor_pct: 100.0 * (median(null_ratios) - 1.0),
    }
}

struct WedgeResult {
    stall_events: u64,
    /// The registry's own fold of the same stream: its `prof` counters.
    registry_stalls: u64,
    cpu_samples: u64,
    dump_lines: u64,
    dump_replayable: bool,
    waited_ns: u64,
}

/// Park a marker in `Guard` past a short deadline and watch the
/// watchdog: one `Stall` event through the hub, one dump hook firing,
/// and a dump file that replays line-by-line.
fn wedge_smoke(dump_path: &std::path::Path) -> WedgeResult {
    let hub = Arc::new(TelemetryHub::default());
    let obs = Registry::with_sinks(vec![hub.clone() as Arc<dyn EventSink>]);
    // Feed the flight ring something to dump besides the stall itself.
    for w in 0..8u64 {
        obs.emit(|| Event::new(EventKind::Spawn { alt: w % 3 }, w, Some(0), obs.now_ns()));
    }
    let dumps = Arc::new(AtomicU64::new(0));
    let hook_dumps = dumps.clone();
    let hook_hub = Arc::downgrade(&hub);
    let hook_path = dump_path.to_path_buf();
    let config = SamplerConfig {
        hz: 997,
        flush_interval: Duration::from_millis(20),
        guard_stall: Duration::from_millis(80),
        overall_stall: Duration::from_millis(500),
        dump_cooldown: Duration::from_secs(30),
        folded_path: None,
    };
    let mut sampler = Sampler::start(
        config,
        obs.clone(),
        Some(Box::new(move |_info| {
            hook_dumps.fetch_add(1, Ordering::SeqCst);
            if let Some(hub) = hook_hub.upgrade() {
                let _ = hub.dump_flight(&hook_path);
            }
        })),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let wedge = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            mark_always(Some(7), Some(3), Some(1), Phase::Guard);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
            mark_idle();
        })
    };
    // Wait for the dump rather than a fixed sleep: CI hosts stall too.
    let deadline = Instant::now() + Duration::from_secs(10);
    while dumps.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    wedge.join().unwrap();
    sampler.stop();

    let mut waited_ns = 0u64;
    // `stalls()` counts lifetime Stall events folded by the hub.
    let stall_events = hub.stalls();
    let dump = std::fs::read_to_string(dump_path).unwrap_or_default();
    let mut dump_lines = 0u64;
    let mut dump_replayable = !dump.is_empty();
    for line in dump.lines().filter(|l| !l.trim().is_empty()) {
        dump_lines += 1;
        match Event::from_json(line) {
            Ok(ev) => {
                if let EventKind::Stall { waited_ns: w, .. } = ev.kind {
                    waited_ns = w;
                }
            }
            Err(_) => dump_replayable = false,
        }
    }
    let prof = &obs.stats().expect("registry is enabled").prof;
    WedgeResult {
        stall_events,
        registry_stalls: prof.stalls.get(),
        cpu_samples: prof.cpu_samples.get(),
        dump_lines,
        dump_replayable,
        waited_ns,
    }
}

fn main() {
    let mut out = "BENCH_prof.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out = arg;
        }
    }
    let (mark_iters, pairs, blocks) = if smoke {
        (200_000u64, 4usize, 300usize)
    } else {
        (2_000_000, 24, 4000)
    };

    eprintln!("marker transitions: {mark_iters} iterations");
    let enabled_ns = marker_transition_ns(mark_iters, |i| {
        mark_always(Some(i % 8), Some(i % 4), Some(i % 3), Phase::Guard)
    });
    // No sampler is attached here, so the gated path is one relaxed
    // load and a not-taken branch — the cost every non-profiled run pays.
    let gated_ns = marker_transition_ns(mark_iters, |i| {
        mark(Some(i % 8), Some(i % 4), Some(i % 3), Phase::Guard)
    });
    eprintln!("enabled transition: {enabled_ns:.2} ns  (budget 20 ns)");
    eprintln!("gated (no reader):  {gated_ns:.2} ns");

    eprintln!("block throughput: {blocks} blocks/run, {pairs} off/on pairs, 3 rounds");
    let pool = Executor::new(4);
    // Three independent rounds; keep the one whose off/off control
    // pairs were quietest. A round where the control "regressed" by
    // several percent was measured through a host-noise episode and
    // says nothing about the sampler.
    let mut rounds: Vec<Overhead> = (0..3)
        .map(|_| sampler_overhead(pairs, blocks, &pool))
        .collect();
    pool.shutdown();
    for (i, r) in rounds.iter().enumerate() {
        eprintln!(
            "round {i}: off {:.0}/s on {:.0}/s regression {:+.2}% (noise floor {:+.2}%)",
            r.baseline, r.sampled, r.regression_pct, r.noise_floor_pct
        );
    }
    rounds.sort_by(|a, b| a.noise_floor_pct.abs().total_cmp(&b.noise_floor_pct.abs()));
    let ovh = rounds.remove(0);
    eprintln!(
        "regression:  {:.2}% (budget 5%, quietest round, noise floor {:+.2}%)",
        ovh.regression_pct, ovh.noise_floor_pct
    );

    let dump_path =
        std::env::temp_dir().join(format!("bench_prof_stall_{}.jsonl", std::process::id()));
    let wedge = wedge_smoke(&dump_path);
    let _ = std::fs::remove_file(&dump_path);
    eprintln!(
        "wedge smoke: {} stall event(s), dump {} lines, replayable={}",
        wedge.stall_events, wedge.dump_lines, wedge.dump_replayable
    );
    assert_eq!(
        wedge.stall_events, 1,
        "one wedge must emit exactly one Stall"
    );
    assert_eq!(
        wedge.registry_stalls, wedge.stall_events,
        "the registry counts the stall the hub saw"
    );
    assert!(wedge.cpu_samples > 0, "the wedged guard was sampled");
    assert!(wedge.dump_lines > 0, "stall dump must not be empty");
    assert!(wedge.dump_replayable, "stall dump must replay");

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
            "  \"bench\": \"prof\",\n",
            "  \"unix_time\": {unix_time},\n",
            "  \"effective_cores\": {cores},\n",
            "  \"smoke\": {smoke},\n",
            "  \"config\": {{\"mark_iters\": {mark_iters}, \"pairs\": {pairs}, ",
            "\"blocks_per_run\": {blocks}, \"sampler_hz\": 997, \"pool_workers\": 4}},\n",
            "  \"marker_transition\": {{\n",
            "    \"enabled_ns\": {enabled:.2},\n",
            "    \"gated_no_reader_ns\": {gated:.2},\n",
            "    \"budget_ns\": 20,\n",
            "    \"within_budget\": {mark_ok}\n",
            "  }},\n",
            "  \"sampler_throughput\": {{\n",
            "    \"baseline_blocks_per_sec\": {baseline:.1},\n",
            "    \"sampled_blocks_per_sec\": {sampled:.1},\n",
            "    \"regression_pct\": {regression:.2},\n",
            "    \"noise_floor_pct\": {noise:.2},\n",
            "    \"budget_pct\": 5.0,\n",
            "    \"within_budget\": {thr_ok}\n",
            "  }},\n",
            "  \"wedge_smoke\": {{\n",
            "    \"stall_events\": {stalls},\n",
            "    \"dump_lines\": {dump_lines},\n",
            "    \"dump_replayable\": {replayable},\n",
            "    \"stall_waited_ns\": {waited}\n",
            "  }},\n",
            "  \"note\": \"regression is the median of per-pair off/on ratios ",
            "(order alternated) from the quietest of three rounds, where ",
            "quietest means the smallest |noise_floor_pct| measured by ",
            "interleaved off/off control pairs; on a single-core container ",
            "the watcher thread time-slices against the workers, an upper ",
            "bound on multi-core hosts; the gated marker cost is what ",
            "non-profiled runs pay at every phase boundary\"\n",
            "}}\n",
        ),
        unix_time = unix_time,
        cores = cores,
        smoke = smoke,
        mark_iters = mark_iters,
        pairs = pairs,
        blocks = blocks,
        enabled = enabled_ns,
        gated = gated_ns,
        mark_ok = enabled_ns <= 20.0,
        baseline = ovh.baseline,
        sampled = ovh.sampled,
        regression = ovh.regression_pct,
        noise = ovh.noise_floor_pct,
        thr_ok = ovh.regression_pct <= 5.0,
        stalls = wedge.stall_events,
        dump_lines = wedge.dump_lines,
        replayable = wedge.dump_replayable,
        waited = wedge.waited_ns,
    );
    std::fs::write(&out, &json).expect("write results file");
    println!("wrote {out}");
}
