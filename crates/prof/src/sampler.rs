//! The watcher thread: samples every marker slot at a fixed rate,
//! accumulates attribution tables, flushes them as obs events, and
//! doubles as the stall watchdog.
//!
//! One sample = one consistent read of one slot. Accounting is
//! conservative by construction: every sample lands in exactly one
//! bucket — an on-CPU `(world, site, alt, phase)` key, the idle count,
//! or (theoretical) the torn-read key — so the tables always satisfy
//! `busy + idle == slot_samples` and `Σ by_key == busy`. The
//! concurrency property test pins that invariant under eight hammering
//! workers.

use crate::marker::{self, MarkerSample, Phase, NO_ALT, NO_SITE, NO_WORLD};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use worlds_obs::{env, Event, EventKind, Registry};

/// Default sampling rate. Prime, so the sampler never phase-locks with
/// millisecond-periodic work and systematically over- or under-samples
/// it.
pub const DEFAULT_HZ: u64 = 997;

/// Sampler tuning. `Default` matches the documented defaults: 997 Hz,
/// 250 ms flushes, 5 s guard / 30 s overall stall deadlines, one dump
/// per 30 s.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Samples per second per slot.
    pub hz: u64,
    /// How often accumulated deltas are emitted as obs events.
    pub flush_interval: Duration,
    /// Marker stuck in `Guard` longer than this ⇒ stall.
    pub guard_stall: Duration,
    /// Marker stuck in any non-idle phase longer than this ⇒ stall.
    pub overall_stall: Duration,
    /// Minimum spacing between stall-dump callbacks.
    pub dump_cooldown: Duration,
    /// Rewrite cumulative folded stacks here at each flush.
    pub folded_path: Option<PathBuf>,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            hz: DEFAULT_HZ,
            flush_interval: Duration::from_millis(250),
            guard_stall: Duration::from_secs(5),
            overall_stall: Duration::from_secs(30),
            dump_cooldown: Duration::from_secs(30),
            folded_path: None,
        }
    }
}

impl SamplerConfig {
    /// Defaults overridden by [`env::PROF_HZ`] and [`env::PROF_FOLDED`].
    pub fn from_env() -> SamplerConfig {
        SamplerConfig {
            hz: env::number(env::PROF_HZ).map_or(DEFAULT_HZ, |hz: u64| hz.clamp(1, 100_000)),
            folded_path: env::path(env::PROF_FOLDED),
            ..SamplerConfig::default()
        }
    }

    /// Estimated on-CPU nanoseconds one sample stands for.
    pub fn period_ns(&self) -> u64 {
        1_000_000_000 / self.hz.max(1)
    }
}

/// One attribution bucket: where a sampled thread was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SampleKey {
    /// World id, or [`NO_WORLD`].
    pub world: u64,
    /// Interned site id, or [`NO_SITE`].
    pub site: u64,
    /// Alternative index, or [`NO_ALT`].
    pub alt: u64,
    /// Marker phase.
    pub phase: Phase,
}

/// The torn-read bucket: keeps conservation exact even if a read ever
/// exhausts its retries (a writer would have to wedge mid-seqlock).
pub const TORN_KEY: SampleKey = SampleKey {
    world: NO_WORLD,
    site: NO_SITE,
    alt: NO_ALT,
    phase: Phase::Task,
};

/// Largest number of distinct attribution keys kept before overflow
/// samples collapse into [`TORN_KEY`]-style catch-alls per phase.
const MAX_KEYS: usize = 65_536;

/// Cumulative sampler state, snapshot via [`Sampler::tables`].
#[derive(Debug, Clone, Default)]
pub struct SampleTables {
    /// Sampler wakeups.
    pub ticks: u64,
    /// Slot reads (ticks × live slots at each tick).
    pub slot_samples: u64,
    /// Samples that hit an on-CPU phase.
    pub busy_samples: u64,
    /// Samples that hit `Idle` or `Wait`.
    pub idle_samples: u64,
    /// On-CPU samples per `(world, site, alt, phase)`.
    pub by_key: HashMap<SampleKey, u64>,
    /// Per-worker `(busy, total)` sample counts.
    pub workers: HashMap<usize, (u64, u64)>,
    /// Stall events emitted.
    pub stalls: u64,
}

impl SampleTables {
    /// On-CPU samples per world (folded over sites/alts/phases).
    pub fn per_world(&self) -> HashMap<u64, u64> {
        let mut out = HashMap::new();
        for (k, v) in &self.by_key {
            *out.entry(k.world).or_insert(0) += v;
        }
        out
    }

    /// On-CPU samples per site (folded over worlds/alts/phases).
    pub fn per_site(&self) -> HashMap<u64, u64> {
        let mut out = HashMap::new();
        for (k, v) in &self.by_key {
            *out.entry(k.site).or_insert(0) += v;
        }
        out
    }
}

/// Everything a stall-dump callback learns about the wedge.
#[derive(Debug, Clone)]
pub struct StallInfo {
    /// Registry slot index of the wedged thread.
    pub worker: usize,
    /// World the marker points at, if any.
    pub world: Option<u64>,
    /// Site the marker points at, if any.
    pub site: Option<u64>,
    /// Phase the marker is stuck in.
    pub phase: Phase,
    /// How long the marker has not advanced.
    pub waited: Duration,
}

/// Callback fired (rate-limited) when the watchdog trips.
pub type StallHook = Box<dyn Fn(&StallInfo) + Send + Sync>;

struct Shared {
    tables: Mutex<SampleTables>,
    stop: AtomicBool,
}

/// Handle to a running sampler thread. Dropping stops it (with a final
/// flush).
pub struct Sampler {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
    period_ns: u64,
}

impl Sampler {
    /// Spawn the watcher thread. Registers as a marker reader for its
    /// lifetime; deltas flush into `obs` as `cpu`/`wutil` events, and
    /// the watchdog emits `stall` events plus at most one `on_stall`
    /// call per [`SamplerConfig::dump_cooldown`].
    pub fn start(config: SamplerConfig, obs: Registry, on_stall: Option<StallHook>) -> Sampler {
        marker::acquire_reader();
        let shared = Arc::new(Shared {
            tables: Mutex::new(SampleTables::default()),
            stop: AtomicBool::new(false),
        });
        let period_ns = config.period_ns();
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("worlds-prof".into())
            .spawn(move || sampler_loop(thread_shared, config, obs, on_stall))
            .expect("spawn sampler thread");
        Sampler {
            shared,
            handle: Some(handle),
            period_ns,
        }
    }

    /// Snapshot the cumulative tables.
    pub fn tables(&self) -> SampleTables {
        self.shared
            .tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Cumulative folded stacks (`site;world;phase count`).
    pub fn folded(&self) -> String {
        crate::fold::render_folded_tables(&self.tables())
    }

    /// Estimated on-CPU nanoseconds per sample at the configured rate.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// Stop the thread after one final flush.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
            marker::release_reader();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[derive(Debug, Clone, Copy)]
struct WatchState {
    seq: u64,
    since: Instant,
    reported: bool,
}

fn sampler_loop(
    shared: Arc<Shared>,
    config: SamplerConfig,
    obs: Registry,
    on_stall: Option<StallHook>,
) {
    let tick = Duration::from_nanos(config.period_ns());
    let period_ns = config.period_ns();
    let mut next = Instant::now() + tick;
    let mut next_flush = Instant::now() + config.flush_interval;
    // Deltas since the last flush.
    let mut pending: HashMap<SampleKey, u64> = HashMap::new();
    let mut pending_util: HashMap<usize, (u64, u64)> = HashMap::new();
    // Watchdog progress per slot index.
    let mut watch: HashMap<usize, WatchState> = HashMap::new();
    let mut last_dump: Option<Instant> = None;

    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        if !stopping {
            let now = Instant::now();
            if now < next {
                std::thread::sleep(next - now);
            }
            next += tick;
            // If we fell behind (debugger, suspended host), resynchronise
            // rather than burning CPU catching up tick debt.
            let now = Instant::now();
            if next < now {
                next = now + tick;
            }

            let slots = marker::live_slots();
            let mut tables = shared.tables.lock().unwrap_or_else(|e| e.into_inner());
            tables.ticks += 1;
            for (index, slot) in &slots {
                let sample = slot.sample(64);
                tables.slot_samples += 1;
                let key = classify(sample);
                let busy = key.is_some();
                match key {
                    Some(key) => {
                        tables.busy_samples += 1;
                        bump(&mut tables.by_key, key);
                        bump(&mut pending, key);
                    }
                    None => tables.idle_samples += 1,
                }
                let w = tables.workers.entry(*index).or_insert((0, 0));
                w.1 += 1;
                if busy {
                    w.0 += 1;
                }
                let u = pending_util.entry(*index).or_insert((0, 0));
                u.1 += 1;
                if busy {
                    u.0 += 1;
                }

                // Watchdog: has this slot's marker advanced?
                if let Some(s) = sample {
                    let now = Instant::now();
                    let st = watch.entry(*index).or_insert(WatchState {
                        seq: s.seq,
                        since: now,
                        reported: false,
                    });
                    if st.seq != s.seq || s.phase == Phase::Idle {
                        st.seq = s.seq;
                        st.since = now;
                        st.reported = false;
                    } else if !st.reported {
                        let waited = now.duration_since(st.since);
                        let deadline = if s.phase == Phase::Guard {
                            config.guard_stall
                        } else {
                            config.overall_stall
                        };
                        if waited >= deadline {
                            st.reported = true;
                            tables.stalls += 1;
                            drop(tables);
                            report_stall(
                                &obs,
                                &on_stall,
                                &mut last_dump,
                                config.dump_cooldown,
                                StallInfo {
                                    worker: *index,
                                    world: (s.world != NO_WORLD).then_some(s.world),
                                    site: (s.site != NO_SITE).then_some(s.site),
                                    phase: s.phase,
                                    waited,
                                },
                            );
                            tables = shared.tables.lock().unwrap_or_else(|e| e.into_inner());
                        }
                    }
                }
            }
        }

        if stopping || Instant::now() >= next_flush {
            next_flush = Instant::now() + config.flush_interval;
            flush(
                &shared,
                &obs,
                &config,
                period_ns,
                &mut pending,
                &mut pending_util,
            );
            if stopping {
                return;
            }
        }
    }
}

fn bump(map: &mut HashMap<SampleKey, u64>, key: SampleKey) {
    if map.len() >= MAX_KEYS && !map.contains_key(&key) {
        // Bounded memory: overflow collapses into the phase's catch-all.
        let fallback = SampleKey {
            world: NO_WORLD,
            site: NO_SITE,
            alt: NO_ALT,
            phase: key.phase,
        };
        *map.entry(fallback).or_insert(0) += 1;
    } else {
        *map.entry(key).or_insert(0) += 1;
    }
}

/// On-CPU sample ⇒ its key; idle/wait ⇒ `None`; torn ⇒ the torn bucket.
fn classify(sample: Option<MarkerSample>) -> Option<SampleKey> {
    match sample {
        Some(s) if s.phase.is_on_cpu() => Some(SampleKey {
            world: s.world,
            site: s.site,
            alt: s.alt,
            phase: s.phase,
        }),
        Some(_) => None,
        None => Some(TORN_KEY),
    }
}

fn report_stall(
    obs: &Registry,
    on_stall: &Option<StallHook>,
    last_dump: &mut Option<Instant>,
    cooldown: Duration,
    info: StallInfo,
) {
    obs.emit(|| {
        Event::new(
            EventKind::Stall {
                site: info.site,
                phase: info.phase as u64,
                waited_ns: info.waited.as_nanos() as u64,
            },
            info.world.unwrap_or(0),
            None,
            obs.now_ns(),
        )
    });
    if let Some(hook) = on_stall {
        let due = last_dump.map(|t| t.elapsed() >= cooldown).unwrap_or(true);
        if due {
            *last_dump = Some(Instant::now());
            hook(&info);
        }
    }
}

fn flush(
    shared: &Arc<Shared>,
    obs: &Registry,
    config: &SamplerConfig,
    period_ns: u64,
    pending: &mut HashMap<SampleKey, u64>,
    pending_util: &mut HashMap<usize, (u64, u64)>,
) {
    // Deterministic emission order keeps captures diffable.
    let mut keys: Vec<(SampleKey, u64)> = pending.drain().collect();
    keys.sort_unstable_by_key(|(k, _)| *k);
    for (key, samples) in keys {
        if key.world == NO_WORLD {
            // No world to attribute to; utilization still covers it.
            continue;
        }
        obs.emit(|| {
            Event::new(
                EventKind::CpuSamples {
                    samples,
                    period_ns,
                    site: (key.site != NO_SITE).then_some(key.site),
                    alt: (key.alt != NO_ALT).then_some(key.alt),
                    phase: key.phase as u64,
                },
                key.world,
                None,
                obs.now_ns(),
            )
        });
    }
    let mut workers: Vec<(usize, (u64, u64))> = pending_util.drain().collect();
    workers.sort_unstable_by_key(|(w, _)| *w);
    for (worker, (busy, total)) in workers {
        if total == 0 {
            continue;
        }
        obs.emit(|| {
            Event::new(
                EventKind::WorkerUtil {
                    worker: worker as u64,
                    busy,
                    total,
                },
                0,
                None,
                obs.now_ns(),
            )
        });
    }
    if let Some(path) = &config.folded_path {
        let tables = shared
            .tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let _ = std::fs::write(path, crate::fold::render_folded_tables(&tables));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn fast_config() -> SamplerConfig {
        SamplerConfig {
            hz: 4000,
            flush_interval: Duration::from_millis(20),
            ..SamplerConfig::default()
        }
    }

    #[test]
    fn samples_are_conserved_across_tables() {
        let _serial = crate::test_serial();
        let (obs, _ring) = Registry::with_ring(4096);
        let mut sampler = Sampler::start(fast_config(), obs, None);
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..8)
            .map(|i| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        marker::mark(Some(i), Some(i % 2), Some(0), Phase::Guard);
                        n = n.wrapping_add(1);
                        if n.is_multiple_of(64) {
                            std::thread::yield_now();
                        }
                    }
                    marker::mark_idle();
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        let t = sampler.tables();
        sampler.stop();
        assert!(t.ticks > 0 && t.busy_samples > 0, "sampler never sampled");
        let keyed: u64 = t.by_key.values().sum();
        assert_eq!(keyed, t.busy_samples, "Σ by_key must equal busy");
        assert_eq!(
            t.busy_samples + t.idle_samples,
            t.slot_samples,
            "every slot read lands in exactly one bucket"
        );
    }

    #[test]
    fn flush_emits_cpu_and_util_events() {
        let _serial = crate::test_serial();
        let (obs, ring) = Registry::with_ring(4096);
        let mut sampler = Sampler::start(fast_config(), obs, None);
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                marker::mark(Some(42), Some(1), Some(0), Phase::Guard);
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
                marker::mark_idle();
            })
        };
        std::thread::sleep(Duration::from_millis(120));
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        sampler.stop();
        let events = ring.events();
        let cpu: u64 = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::CpuSamples { samples, .. } if e.world == 42 => Some(*samples),
                _ => None,
            })
            .sum();
        assert!(cpu > 0, "no cpu flush for the busy world: {events:?}");
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::WorkerUtil { .. })),
            "no worker utilization flush"
        );
    }

    #[test]
    fn wedge_fires_exactly_one_stall_and_one_dump() {
        let _serial = crate::test_serial();
        let (obs, ring) = Registry::with_ring(4096);
        let dumps = Arc::new(AtomicU64::new(0));
        let hook_dumps = dumps.clone();
        let config = SamplerConfig {
            hz: 2000,
            flush_interval: Duration::from_millis(20),
            guard_stall: Duration::from_millis(60),
            overall_stall: Duration::from_millis(400),
            dump_cooldown: Duration::from_secs(30),
            folded_path: None,
        };
        let mut sampler = Sampler::start(
            config,
            obs,
            Some(Box::new(move |_info| {
                hook_dumps.fetch_add(1, Ordering::SeqCst);
            })),
        );
        // The artificial wedge: a guard that never advances its marker.
        let stop = Arc::new(AtomicBool::new(false));
        let wedge = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                marker::mark(Some(7), Some(3), Some(1), Phase::Guard);
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                marker::mark_idle();
            })
        };
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        wedge.join().unwrap();
        sampler.stop();
        let stalls: Vec<_> = ring
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Stall { .. }))
            .collect();
        assert_eq!(stalls.len(), 1, "one wedge ⇒ exactly one Stall: {stalls:?}");
        assert_eq!(stalls[0].world, 7);
        match &stalls[0].kind {
            EventKind::Stall {
                site,
                phase,
                waited_ns,
            } => {
                assert_eq!(*site, Some(3));
                assert_eq!(*phase, Phase::Guard as u64);
                assert!(*waited_ns >= 60_000_000);
            }
            other => panic!("not a stall: {other:?}"),
        }
        assert_eq!(dumps.load(Ordering::SeqCst), 1, "exactly one dump");
    }

    #[test]
    fn stall_clears_when_marker_advances() {
        let _serial = crate::test_serial();
        let (obs, ring) = Registry::with_ring(1024);
        let config = SamplerConfig {
            hz: 2000,
            flush_interval: Duration::from_millis(20),
            guard_stall: Duration::from_millis(50),
            overall_stall: Duration::from_millis(400),
            ..SamplerConfig::default()
        };
        let mut sampler = Sampler::start(config, obs, None);
        let worker = std::thread::spawn(move || {
            // Wedge once, recover, wedge again: two distinct episodes.
            for _ in 0..2 {
                marker::mark(Some(9), Some(1), None, Phase::Guard);
                std::thread::sleep(Duration::from_millis(130));
                marker::mark_idle();
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        worker.join().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        sampler.stop();
        let stalls = ring
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Stall { .. }))
            .count();
        assert_eq!(stalls, 2, "recovery must re-arm the watchdog");
    }
}
