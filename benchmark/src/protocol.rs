//! The run protocol every workload goes through, plain and traced.
//!
//! Plain run (`--trace 0`): six times over, set the workload up from
//! scratch (inputs from the seed, then state), run it closed-loop for a
//! fifth of `--seconds`, let background work settle and check that every
//! resource is back at its baseline. The first repetition warms caches,
//! pools and the allocator and its timings are discarded; a timing metric
//! is the **median over the five measured repetitions** of the
//! per-repetition value, `setup_s` the median over those six set-ups and
//! nine more that are torn down unused, and `rss_peak_mib` the peak when
//! the first instance has done its loop.
//!
//! Traced run (`--trace 1`): a warm-up, one untraced and one traced
//! repetition of equal length (their throughput difference is the tracing
//! overhead), then the workload's ladder of direct calls into the lower
//! layers. End-to-end numbers are never taken from a traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use worlds_obs::Registry;
use worlds_pagestore::StoreStats;

use crate::metrics::LayerValues;
use crate::procinfo;
use crate::stats;
use crate::trace::{self, Layer, Span};

/// Measured repetitions per plain run.
pub const REPS: u64 = 5;
/// Set-ups timed on top of the six the repetitions need.
const EXTRA_SETUPS: u64 = 9;

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// What one repetition's closed loop produced.
#[derive(Default)]
pub struct Measured {
    pub ops: u64,
    /// Ops that errored, were refused, or failed their output check.
    pub failed: u64,
    /// Ops per second: each driver's `ops / Σ its op windows`, summed over
    /// the drivers (they run concurrently and each waits for its replies).
    pub rate: f64,
    pub driver_rates: Vec<f64>,
    /// One latency sample per op, ns.
    pub lat_ns: Vec<u32>,
    pub spans: Vec<Span>,
}

impl From<Driver> for Measured {
    /// A repetition driven by one thread.
    fn from(d: Driver) -> Measured {
        let mut m = Measured::default();
        m.absorb(d);
        m
    }
}

impl Measured {
    /// Fold one driver thread's loop into the repetition.
    pub fn absorb(&mut self, d: Driver) {
        let rate = if d.timed.is_zero() {
            0.0
        } else {
            d.lat_ns.len() as f64 / d.timed.as_secs_f64()
        };
        self.ops += d.lat_ns.len() as u64;
        self.failed += d.failed;
        self.rate += rate;
        self.driver_rates.push(rate);
        self.lat_ns.extend_from_slice(&d.lat_ns);
        self.spans.extend(d.tracer.into_spans());
    }
}

/// One driver thread's side of a closed loop: it times each op, keeps the
/// samples, and owns that thread's tracer.
pub struct Driver {
    pub tracer: trace::Tracer,
    op_name: &'static str,
    lat_ns: Vec<u32>,
    timed: Duration,
    pub failed: u64,
    started: Instant,
    budget: Duration,
}

/// An op in flight (see [`Driver::start_op`]).
pub struct OpTimer {
    root: trace::Open,
    t0: Instant,
}

impl Driver {
    /// `tracing` carries the epoch shared by all drivers of a traced
    /// repetition; `None` records no spans.
    pub fn new(
        op_name: &'static str,
        tid: u32,
        budget: Duration,
        tracing: Option<Instant>,
    ) -> Driver {
        Driver {
            tracer: match tracing {
                Some(epoch) => trace::Tracer::enabled(epoch, tid),
                None => trace::Tracer::disabled(),
            },
            op_name,
            lat_ns: Vec::new(),
            timed: Duration::ZERO,
            failed: 0,
            started: Instant::now(),
            budget,
        }
    }

    /// True until the repetition's time slice is used up. Checked between
    /// batches, so every driver runs whole batches and per-op counters come
    /// out exact.
    pub fn has_budget(&self) -> bool {
        self.started.elapsed() < self.budget
    }

    pub fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    pub fn start_op(&mut self) -> OpTimer {
        let root = self.tracer.begin_op(self.op_name, self.lat_ns.len() as u64);
        OpTimer {
            root,
            t0: Instant::now(),
        }
    }

    /// Close the op's window. Output checks come after this call, outside
    /// the window; report a failed one with [`Driver::fail`].
    pub fn finish_op(&mut self, op: OpTimer) {
        let dt = op.t0.elapsed();
        self.tracer.end(op.root);
        self.timed += dt;
        self.lat_ns.push(dt.as_nanos().min(u32::MAX as u128) as u32);
    }

    /// Count the op just finished as failed (at most once per op).
    pub fn fail(&mut self, what: &str) {
        if self.failed < 5 {
            eprintln!("{}: op {} failed: {what}", self.op_name, self.lat_ns.len());
        }
        self.failed += 1;
    }

    /// `ok` or the op failed.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        if !ok {
            self.fail(what);
        }
        ok
    }
}

/// Monotonic counters and (keys starting `gauge.`) levels read from the
/// program's public counters at one instant.
pub type Counts = BTreeMap<&'static str, u64>;

pub fn count(c: &mut Counts, key: &'static str, n: u64) {
    *c.entry(key).or_insert(0) += n;
}

/// Add one store's counters (several stores sum).
pub fn count_store(c: &mut Counts, s: &StoreStats) {
    count(c, "store.forks", s.forks);
    count(c, "store.adopts", s.adopts);
    count(c, "store.cow_faults", s.cow_faults);
    count(c, "store.bytes_copied", s.bytes_copied);
    count(c, "store.zero_fills", s.zero_fills);
    count(c, "store.reads", s.reads);
    count(c, "store.writes", s.writes);
    count(c, "store.writes_solo", s.writes_solo);
    count(c, "store.worlds_dropped", s.worlds_dropped);
    count(c, "store.frames_freed", s.frames_freed);
    count(c, "store.frames_recycled", s.frames_recycled);
    count(c, "store.dedupe_hits", s.dedupe_hits);
    count(c, "store.hash_invalidations", s.hash_invalidations);
    count(c, "store.recycler_locks", s.recycler_locks);
}

/// Add the `RunStats` of the registry handed to the public constructors.
pub fn count_registry(c: &mut Counts, obs: &Registry) {
    let Some(s) = obs.stats() else { return };
    count(c, "exec.tasks_run", s.exec.tasks_run.get());
    count(c, "exec.tasks_stolen", s.exec.tasks_stolen.get());
    count(c, "exec.tasks_injected", s.exec.tasks_injected.get());
    count(c, "exec.fallback_threads", s.exec.fallback_threads.get());
    count(c, "exec.reaper_batches", s.exec.reaper_batches.get());
    count(c, "exec.reaper_worlds", s.exec.reaper_worlds.get());
    count(c, "kernel.worlds_spawned", s.kernel.worlds_spawned.get());
    count(c, "kernel.commits", s.kernel.commits.get());
    count(
        c,
        "kernel.eliminations",
        s.kernel.eliminations_sync.get() + s.kernel.eliminations_async.get(),
    );
    count(c, "net.frames_sent", s.net.frames_sent.get());
    count(c, "net.wire_bytes_sent", s.net.wire_bytes_sent.get());
    count(c, "net.retries", s.net.retries.get());
    count(c, "net.timeouts", s.net.timeouts.get());
    count(c, "net.nacks", s.net.nacks.get());
}

/// `after - before` for counters, `after` for gauges.
pub fn delta(before: &Counts, after: &Counts) -> Counts {
    after
        .iter()
        .map(|(&k, &v)| {
            if k.starts_with("gauge.") {
                (k, v)
            } else {
                (k, v.saturating_sub(before.get(k).copied().unwrap_or(0)))
            }
        })
        .collect()
}

/// What the traced repetition hands the ladder: counter deltas per op and
/// the span list's summary.
pub struct TracedRep {
    pub ops: u64,
    pub counts: Counts,
    /// Mean duration of a root span, ns.
    pub op_ns: f64,
    /// Self time per layer over the whole repetition, as a share of the
    /// root spans' total (sums to 1).
    pub span_share: BTreeMap<Layer, f64>,
    /// Mean duration per `(layer, span name)`, ns, and spans per op.
    pub span_mean_ns: BTreeMap<(Layer, &'static str), (f64, f64)>,
}

impl TracedRep {
    /// Counter delta per op (0 for a counter the workload never touches).
    pub fn per_op(&self, key: &str) -> f64 {
        self.total(key) / self.ops.max(1) as f64
    }

    pub fn total(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0) as f64
    }

    pub fn span_ns(&self, layer: Layer, name: &'static str) -> f64 {
        self.span_mean_ns.get(&(layer, name)).map_or(0.0, |m| m.0)
    }

    pub fn share_of(&self, layer: Layer) -> f64 {
        self.span_share.get(&layer).copied().unwrap_or(0.0)
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Set-up: generate this repetition's inputs from the seed, then build
    /// the state. `obs` is `None` for the library's default constructors
    /// (what users get) and `Some(enabled)` in the traced repetition, where
    /// it goes to the public `with_obs`-style constructors.
    fn build(seed: u64, rep: u64, obs: Option<Registry>) -> Self;

    /// Run whole batches of ops, closed loop, until `budget` is used up.
    fn measure(&mut self, budget: Duration, tracing: Option<Instant>) -> Measured;

    /// Wait for background work (reaper, late losers) to finish.
    fn settle(&mut self);

    /// Public counters right now (traced repetition only).
    fn counts(&self) -> Counts;

    /// End-of-repetition checks against the baseline taken in `build`;
    /// returns how many failed. Call after [`Workload::settle`].
    fn finish(self) -> u64;

    /// Phase B of the traced run: direct calls into the lower layers with
    /// this workload's shapes, then the layer shares.
    fn ladder(seed: u64, probe: &Probe, rep: &TracedRep, lv: &mut LayerValues);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics every workload derives the same way from counter
/// deltas; ladders add the `*_ns` probes, shares and their own extras.
fn counters_to_layers(rep: &TracedRep, m: &Measured, lv: &mut LayerValues) {
    for (metric, key) in [
        ("pagestore.forks_per_op", "store.forks"),
        ("pagestore.cow_faults_per_op", "store.cow_faults"),
        ("pagestore.bytes_copied_per_op", "store.bytes_copied"),
        ("pagestore.zero_fills_per_op", "store.zero_fills"),
        ("pagestore.reads_per_op", "store.reads"),
        ("pagestore.writes_per_op", "store.writes"),
        ("pagestore.frames_freed_per_op", "store.frames_freed"),
        ("pagestore.recycler_locks_per_op", "store.recycler_locks"),
        (
            "pagestore.hash_invalidations_per_op",
            "store.hash_invalidations",
        ),
        ("exec.tasks_run_per_op", "exec.tasks_run"),
        ("exec.tasks_injected_per_op", "exec.tasks_injected"),
        ("core.alts_eliminated_per_op", "kernel.eliminations"),
        ("net.frames_sent_per_op", "net.frames_sent"),
        ("net.wire_bytes_sent_per_op", "net.wire_bytes_sent"),
        ("net.wire_bytes_per_op", "wire.bytes"),
        ("remote.full_ships_per_op", "remote.full_ships"),
        ("remote.bytes_sent_per_op", "remote.bytes_sent"),
        ("server.committed_per_op", "server.committed"),
    ] {
        lv.set(metric, rep.per_op(key));
    }
    for (metric, key) in [
        ("pagestore.live_frames_end", "gauge.live_frames"),
        ("exec.fallback_threads", "exec.fallback_threads"),
        ("net.retries", "net.retries"),
        ("net.timeouts", "net.timeouts"),
        ("net.nacks", "net.nacks"),
        ("remote.cache_evictions", "remote.cache_evictions"),
        ("remote.cache_resident_bytes", "gauge.cache_resident_bytes"),
        ("server.rejected_overloaded", "server.rejected_overloaded"),
        ("server.rejected_limit", "server.rejected_limit"),
    ] {
        lv.set(metric, rep.total(key));
    }
    let faults = rep.total("store.cow_faults") + rep.total("store.zero_fills");
    for (metric, num, den) in [
        (
            "pagestore.writes_solo_ratio",
            rep.total("store.writes_solo"),
            rep.total("store.writes"),
        ),
        (
            "pagestore.frames_recycled_ratio",
            rep.total("store.frames_recycled"),
            faults,
        ),
        (
            "pagestore.dedupe_hit_ratio",
            rep.total("store.dedupe_hits"),
            faults,
        ),
        (
            "exec.tasks_stolen_ratio",
            rep.total("exec.tasks_stolen"),
            rep.total("exec.tasks_run"),
        ),
        (
            "exec.reaper_worlds_per_batch",
            rep.total("exec.reaper_worlds"),
            rep.total("exec.reaper_batches"),
        ),
        (
            "core.useful_alt_ratio",
            rep.total("kernel.commits"),
            rep.total("kernel.worlds_spawned"),
        ),
        (
            "core.pages_dirtied_per_alt",
            rep.total("core.pages_dirtied"),
            rep.total("core.alts_reported"),
        ),
    ] {
        lv.set(metric, ratio(num, den));
    }
    let fastest = m.driver_rates.iter().copied().fold(0.0, f64::max);
    let slowest = m.driver_rates.iter().copied().fold(f64::INFINITY, f64::min);
    if m.driver_rates.len() > 1 {
        lv.set("server.client_imbalance", ratio(fastest, slowest));
    }
}

/// Summarise a traced repetition's spans and counter deltas.
fn traced_rep(m: &Measured, counts: Counts) -> TracedRep {
    let (roots, root_ns) = trace::root_totals(&m.spans);
    let span_share = trace::self_ns_by_layer(&m.spans)
        .into_iter()
        .map(|(layer, ns)| (layer, ratio(ns as f64, root_ns as f64)))
        .collect();
    let span_mean_ns = trace::totals_by_name(&m.spans)
        .into_iter()
        .map(|(key, t)| {
            (
                key,
                (
                    ratio(t.total_ns as f64, t.count as f64),
                    ratio(t.count as f64, roots as f64),
                ),
            )
        })
        .collect();
    TracedRep {
        ops: m.ops,
        counts,
        op_ns: ratio(root_ns as f64, roots as f64),
        span_share,
        span_mean_ns,
    }
}

/// A fixed-count loop of one direct call, bounded in time so that a
/// millisecond-scale call cannot eat the run.
pub struct Probe {
    /// Calls wanted per probe.
    pub calls: u64,
    /// Stop early after this long (but never before `MIN_CALLS`).
    pub cap: Duration,
}

impl Probe {
    const MIN_CALLS: u64 = 20;

    /// Mean ns per call. `f` makes `per_iter` calls and returns how long
    /// they took, timing only the calls themselves (see [`timed`]); cheap
    /// calls are batched so the clock reads do not drown them.
    pub fn mean_ns(&self, per_iter: u64, mut f: impl FnMut() -> Duration) -> f64 {
        let started = Instant::now();
        let mut total = Duration::ZERO;
        let mut calls = 0u64;
        while self.wants_more(calls, started) {
            total += f();
            calls += per_iter;
        }
        total.as_nanos() as f64 / calls as f64
    }

    /// Whether a loop that has made `calls` calls since `started` goes on.
    pub fn wants_more(&self, calls: u64, started: Instant) -> bool {
        calls < Self::MIN_CALLS || (calls < self.calls && started.elapsed() < self.cap)
    }
}

/// How long `f` takes, and what it returned.
pub fn timed_value<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let value = std::hint::black_box(f());
    (t0.elapsed(), value)
}

/// How long `f` takes; its result is kept from the optimiser.
pub fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    timed_value(f).0
}

/// Print each end-of-repetition check that did not hold; returns how many.
pub fn failed_checks(checks: &[(bool, &str)]) -> u64 {
    let failed = checks.iter().filter(|(ok, _)| !ok);
    failed
        .inspect(|(_, what)| eprintln!("end-of-repetition check failed: {what}"))
        .count() as u64
}

/// A finished run, ready to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in table order: end-to-end metrics for a plain run,
    /// per-layer metrics for a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

pub fn run<W: Workload>(cfg: &Cfg, trace_out: Option<&std::path::Path>) -> Outcome {
    match trace_out {
        None => run_plain::<W>(cfg),
        Some(dir) => run_traced::<W>(cfg, dir),
    }
}

fn slice_of(cfg: &Cfg, share: f64) -> Duration {
    if cfg.smoke {
        Duration::from_millis(60)
    } else {
        Duration::from_secs_f64(cfg.seconds * share)
    }
}

struct Rep {
    m: Measured,
    cpu: Duration,
}

fn run_plain<W: Workload>(cfg: &Cfg) -> Outcome {
    let slice = slice_of(cfg, 1.0 / REPS as f64);
    let mut setups = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut failed_checks = 0;
    let mut rss_peak_mib = 0.0;
    for rep in 0..=REPS {
        let t0 = Instant::now();
        let mut w = W::build(cfg.seed, rep, None);
        setups.push(t0.elapsed().as_secs_f64());
        let cpu0 = procinfo::process_cpu();
        let m = w.measure(slice, None);
        let cpu = procinfo::process_cpu().saturating_sub(cpu0);
        if rep == 0 {
            // One instance's peak: read before tearing down and rebuilding
            // the state five times stacks allocator history on top of it.
            rss_peak_mib = procinfo::rss_peak_mib();
        }
        w.settle();
        failed_checks += w.finish();
        if rep > 0 {
            reps.push(Rep { m, cpu });
        }
    }
    // Set-up is milliseconds of thread spawns and socket binds, so six
    // samples wander; a few more instances, torn down unused, steady the
    // median. They come last so that they cannot touch `rss_peak_mib`.
    for extra in 0..EXTRA_SETUPS {
        let t0 = Instant::now();
        let w = W::build(cfg.seed, REPS + 1 + extra, None);
        setups.push(t0.elapsed().as_secs_f64());
        failed_checks += w.finish();
    }
    let quantiles: Vec<(f64, f64)> = reps
        .iter()
        .map(|r| stats::p50_p95_us(&r.m.lat_ns))
        .collect();
    let metrics = vec![
        ("setup_s", stats::median(&setups)),
        ("ops_per_s", stats::median_of_reps(&reps, |r| r.m.rate)),
        ("op_us_p50", stats::median_of_reps(&quantiles, |q| q.0)),
        ("op_us_p95", stats::median_of_reps(&quantiles, |q| q.1)),
        (
            "cpu_us_per_op",
            stats::median_of_reps(&reps, |r| r.cpu.as_secs_f64() * 1e6 / r.m.ops.max(1) as f64),
        ),
        ("rss_peak_mib", rss_peak_mib),
    ];
    let per_rep = |values: Vec<f64>| -> String {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        shown.join(" ")
    };
    let fewest_samples = reps.iter().map(|r| r.m.lat_ns.len()).min().unwrap_or(0);
    Outcome {
        attempted: reps.iter().map(|r| r.m.ops).sum(),
        failed: reps.iter().map(|r| r.m.failed).sum::<u64>() + failed_checks,
        metrics,
        notes: vec![
            format!(
                "ops per measured repetition: {}",
                per_rep(reps.iter().map(|r| r.m.ops as f64).collect())
            ),
            format!(
                "ops_per_s per repetition: {}",
                per_rep(reps.iter().map(|r| r.m.rate).collect())
            ),
            format!(
                "op_us_p50 per repetition: {}",
                per_rep(quantiles.iter().map(|q| q.0).collect())
            ),
            format!(
                "op_us_p95 per repetition: {}",
                per_rep(quantiles.iter().map(|q| q.1).collect())
            ),
            format!(
                "latency samples per repetition: at least {fewest_samples} (p95 has {} beyond it)",
                fewest_samples / 20
            ),
            format!("end-of-repetition checks failed: {failed_checks}"),
        ],
    }
}

fn run_traced<W: Workload>(cfg: &Cfg, out_dir: &std::path::Path) -> Outcome {
    let slice = slice_of(cfg, 0.25);
    let mut failed = 0;
    let mut attempted = 0;

    let mut untraced_rate = 0.0;
    for (rep, budget) in [(0, slice / 4), (1, slice)] {
        let mut w = W::build(cfg.seed, rep, None);
        let m = w.measure(budget, None);
        w.settle();
        failed += m.failed + w.finish();
        attempted += m.ops;
        untraced_rate = m.rate;
    }

    let obs = Registry::enabled();
    let mut w = W::build(cfg.seed, 1, Some(obs));
    let before = w.counts();
    let m = w.measure(slice, Some(Instant::now()));
    w.settle();
    let counts = delta(&before, &w.counts());
    failed += m.failed + w.finish();
    attempted += m.ops;

    let rep = traced_rep(&m, counts);
    let mut lv = LayerValues::zeroed();
    counters_to_layers(&rep, &m, &mut lv);
    lv.set(
        "trace.overhead_pct",
        ratio(untraced_rate - m.rate, untraced_rate) * 100.0,
    );
    lv.set("harness.share", rep.share_of(Layer::Harness));
    let probe = if cfg.smoke {
        Probe {
            calls: 40,
            cap: Duration::from_millis(10),
        }
    } else {
        Probe {
            calls: 2000,
            cap: Duration::from_secs_f64(cfg.seconds / 80.0),
        }
    };
    let ladder_started = Instant::now();
    W::ladder(cfg.seed, &probe, &rep, &mut lv);
    let ladder_s = ladder_started.elapsed().as_secs_f64();

    let mut notes = vec![
        format!(
            "traced repetition: {} ops, {} spans, mean op {:.1} us; untraced {:.1} ops/s, traced {:.1} ops/s",
            m.ops,
            m.spans.len(),
            rep.op_ns / 1e3,
            untraced_rate,
            m.rate
        ),
        format!("ladder took {ladder_s:.2} s"),
    ];
    for ((layer, name), (mean_ns, per_op)) in &rep.span_mean_ns {
        notes.push(format!(
            "span {}.{name}: mean {:.2} us, {per_op:.2} per op",
            layer.as_str(),
            mean_ns / 1e3
        ));
    }
    let path = out_dir.join(format!("trace-{}.json", W::NAME));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace_json(W::NAME, &m.spans)));
    match written {
        Ok(()) => notes.push(format!("trace written to {}", path.display())),
        Err(e) => {
            failed += 1;
            notes.push(format!("could not write {}: {e}", path.display()));
        }
    }
    let shares: f64 = Layer::ALL
        .iter()
        .map(|l| lv.get(&format!("{}.share", l.as_str())))
        .sum();
    notes.push(format!("layer shares sum to {shares:.4}"));
    Outcome {
        attempted,
        failed,
        metrics: lv.iter().collect(),
        notes,
    }
}

/// Split an op's mean time among layers from the ladder: `lower` holds
/// each lower layer's `probe mean × calls per op`, the workload's top
/// layer keeps the rest of `top_ns` (the time spans attribute to it) as
/// its self time. If the probes add up to more than the top layer's span
/// time, the lower layers are scaled down to fit and the excess is
/// reported. Returns `(top self ns, excess %)`; sets every `share`.
pub fn split_shares(
    lv: &mut LayerValues,
    rep: &TracedRep,
    top: Layer,
    top_ns: f64,
    lower: &[(Layer, f64)],
) -> (f64, f64) {
    let lower_sum: f64 = lower.iter().map(|l| l.1).sum();
    let scale = if lower_sum > top_ns && lower_sum > 0.0 {
        top_ns / lower_sum
    } else {
        1.0
    };
    let excess_pct = ratio((lower_sum - top_ns).max(0.0), top_ns) * 100.0;
    let top_self = (top_ns - lower_sum).max(0.0);
    lv.set(
        &format!("{}.share", top.as_str()),
        ratio(top_self, rep.op_ns),
    );
    for &(layer, ns) in lower {
        let name = format!("{}.share", layer.as_str());
        lv.set(&name, lv.get(&name) + ratio(ns * scale, rep.op_ns));
    }
    lv.set("trace.probe_excess_pct", excess_pct);
    (top_self, excess_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_deltas_keep_gauges_absolute() {
        let mut before = Counts::new();
        count(&mut before, "store.forks", 10);
        count(&mut before, "gauge.live_frames", 2048);
        let mut after = Counts::new();
        count(&mut after, "store.forks", 25);
        count(&mut after, "gauge.live_frames", 2050);
        count(&mut after, "store.reads", 7);
        let d = delta(&before, &after);
        assert_eq!(d["store.forks"], 15);
        assert_eq!(d["gauge.live_frames"], 2050);
        assert_eq!(d["store.reads"], 7);
    }

    #[test]
    fn shares_sum_to_one_and_excess_is_reported() {
        let rep = TracedRep {
            ops: 10,
            counts: Counts::new(),
            op_ns: 1000.0,
            span_share: BTreeMap::new(),
            span_mean_ns: BTreeMap::new(),
        };
        let mut lv = LayerValues::zeroed();
        lv.set("harness.share", 0.1);
        let (self_ns, excess) = split_shares(
            &mut lv,
            &rep,
            Layer::Core,
            900.0,
            &[(Layer::Pagestore, 300.0), (Layer::Exec, 150.0)],
        );
        assert_eq!((self_ns, excess), (450.0, 0.0));
        let sum: f64 = Layer::ALL
            .iter()
            .map(|l| lv.get(&format!("{}.share", l.as_str())))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);

        let mut lv = LayerValues::zeroed();
        let (self_ns, excess) = split_shares(
            &mut lv,
            &rep,
            Layer::Core,
            900.0,
            &[(Layer::Pagestore, 1200.0), (Layer::Exec, 600.0)],
        );
        assert_eq!(self_ns, 0.0);
        assert!((excess - 100.0).abs() < 1e-9);
        assert!((lv.get("pagestore.share") - 0.6).abs() < 1e-9);
        assert!((lv.get("exec.share") - 0.3).abs() < 1e-9);
    }

    #[test]
    fn probe_runs_the_wanted_calls_and_reports_the_mean() {
        let probe = Probe {
            calls: 100,
            cap: Duration::from_secs(5),
        };
        let mut iters = 0;
        let mean = probe.mean_ns(10, || {
            iters += 1;
            Duration::from_nanos(500)
        });
        assert_eq!(iters, 10);
        assert_eq!(mean, 50.0);
    }

    #[test]
    fn driver_times_ops_and_counts_failures() {
        let mut d = Driver::new("round", 0, Duration::from_secs(1), Some(Instant::now()));
        for i in 0..3 {
            let op = d.start_op();
            let s = d.tracer.begin("call", Layer::Pagestore);
            std::hint::black_box(i);
            d.tracer.end(s);
            d.finish_op(op);
            d.check(i != 1, "op 1 is wrong");
        }
        assert!(d.has_budget());
        let m = Measured::from(d);
        assert_eq!(
            (m.ops, m.failed, m.lat_ns.len(), m.spans.len()),
            (3, 1, 3, 6)
        );
        assert!(m.rate > 0.0 && m.driver_rates.len() == 1);
        let rep = traced_rep(&m, Counts::new());
        let total: f64 = rep.span_share.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(rep.span_mean_ns[&(Layer::Pagestore, "call")].1, 1.0);
    }
}
