//! The hub: streaming rollups over the live event stream.
//!
//! A [`TelemetryHub`] is an [`EventSink`]. Every event the registry
//! emits lands here once, inline, and is folded into three lock-free
//! structures:
//!
//! * **Slot rollups** — a ring of time slots (default 8 × 250ms). Each
//!   slot is a block of relaxed atomic counters tagged with the epoch
//!   (`wall_ns / slot_ns`) it belongs to; writers rotate a stale slot
//!   by CAS-ing its epoch forward and zeroing the counters. [`Rates`]
//!   sums the slots still inside the window — a sliding-window rate
//!   with bounded staleness (one slot), no replay, no locks.
//! * **Cumulative gauges** — lifetime spawn/commit/eliminate counts
//!   and the frames-resident level, giving [`Gauges`] (live worlds,
//!   frames, elimination backlog) as pure event arithmetic.
//! * **Per-site statistics** — [`SiteStats`](crate::SiteStats) decay
//!   histograms feeding the `Rμ`/`Ro`/`PI` table.
//!
//! Time is *event time*: the hub's "now" is the largest `wall_ns` it
//! has seen, so rollups replay deterministically from a JSONL stream
//! and never consult a clock of their own.
//!
//! The hot path is `record`: one `fetch_max`, one slot lookup, a
//! handful of relaxed `fetch_add`s, one uncontended flight-ring slot —
//! the same class of work the registry's own `RunStats::absorb`
//! already does per event. A slot rotation racing a laggard writer can
//! credit a stale event to the fresh slot; that skews one slot by a
//! few events, which rate snapshots tolerate (same contract as
//! histogram snapshots).

use crate::flight::FlightRecorder;
use crate::pi::{SiteSnapshot, SiteStats};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use worlds_obs::{Counter, Event, EventKind, EventSink, Gauge};

/// Per-slot counter indices. One cache-friendly block of `u64`s per
/// slot instead of named fields, so rotation is a short loop.
mod c {
    pub const EVENTS: usize = 0;
    pub const SPAWNS: usize = 1;
    pub const COMMITS: usize = 2;
    pub const ELIMS: usize = 3;
    pub const GUARDS: usize = 4;
    pub const FAULTS: usize = 5;
    pub const NET_FRAMES: usize = 6;
    pub const NET_RETRIES: usize = 7;
    pub const RTT_SUM: usize = 8;
    pub const RTT_COUNT: usize = 9;
    pub const BUSY_TICKS: usize = 10;
    pub const TOTAL_TICKS: usize = 11;
    pub const N: usize = 12;
}

/// Shape of the hub: window geometry, decay clock, flight capacity.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Width of one rollup slot in event-time nanoseconds.
    pub slot_ns: u64,
    /// Number of slots in the sliding window.
    pub slots: usize,
    /// Flight-recorder ring capacity (events).
    pub flight_capacity: usize,
    /// Event-time interval between half-life steps of the per-site
    /// decay histograms.
    pub decay_interval_ns: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            slot_ns: 250_000_000,
            slots: 8,
            flight_capacity: 4096,
            decay_interval_ns: 1_000_000_000,
        }
    }
}

struct Slot {
    /// `wall_ns / slot_ns` of the data currently in the counters.
    epoch: AtomicU64,
    counts: [AtomicU64; c::N],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            epoch: AtomicU64::new(0),
            counts: [0u64; c::N].map(AtomicU64::new),
        }
    }
}

/// Windowed rates (per second of event time) plus the RTT summary for
/// the same window. All zeros before any event arrives.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rates {
    /// Span of event time the rates cover.
    pub window_ns: u64,
    /// All events per second.
    pub events_s: f64,
    /// Worlds spawned per second.
    pub spawns_s: f64,
    /// Speculation blocks committed per second.
    pub commits_s: f64,
    /// Losers eliminated (sync + async) per second.
    pub elims_s: f64,
    /// Guard verdicts per second.
    pub guards_s: f64,
    /// Page faults (CoW + zero-fill) per second.
    pub faults_s: f64,
    /// Wire frames (sends + receives) per second.
    pub net_frames_s: f64,
    /// Wire retries per second.
    pub net_retries_s: f64,
    /// Mean request→reply round trip inside the window, ns.
    pub rtt_mean_ns: f64,
    /// Fraction of profiler sampler ticks that caught a worker on-CPU
    /// inside the window, 0..=1. Zero without a sampler attached.
    pub cpu_util: f64,
}

/// Instantaneous levels derived from lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Speculative worlds spawned and not yet committed, eliminated or
    /// timed out.
    pub live_worlds: u64,
    /// Physical frames resident (CoW/zero-fill minus frees).
    pub frames_resident: u64,
    /// Losers queued for background elimination and not yet absorbed
    /// into a sync/async teardown the hub saw. Grows when async
    /// elimination lags.
    pub elim_backlog: u64,
}

/// The live rollup hub. Construct one, wrap it in an `Arc`, and hand
/// it to [`worlds_obs::Registry::with_sinks`].
pub struct TelemetryHub {
    cfg: TelemetryConfig,
    slots: Vec<Slot>,
    /// Largest `wall_ns` seen — the hub's "now".
    max_wall: AtomicU64,
    /// Event time of the last decay step.
    last_decay: AtomicU64,
    // Lifetime counters behind the gauges.
    spawns: Counter,
    commits: Counter,
    elim_sync: Counter,
    elim_async: Counter,
    elim_async_reaped: Counter,
    timeouts: Counter,
    /// Lifetime watchdog stall events.
    stalls: Counter,
    frames: Gauge,
    sites: SiteStats,
    flight: FlightRecorder,
    /// `effective_cores` from the last Meta event, 0 before one.
    meta_cores: AtomicU64,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        TelemetryHub::new(TelemetryConfig::default())
    }
}

impl TelemetryHub {
    /// A hub with the given window geometry.
    pub fn new(cfg: TelemetryConfig) -> TelemetryHub {
        let cfg = TelemetryConfig {
            slot_ns: cfg.slot_ns.max(1),
            slots: cfg.slots.max(1),
            ..cfg
        };
        TelemetryHub {
            slots: (0..cfg.slots).map(|_| Slot::new()).collect(),
            cfg,
            max_wall: AtomicU64::new(0),
            last_decay: AtomicU64::new(0),
            spawns: Counter::new(),
            commits: Counter::new(),
            elim_sync: Counter::new(),
            elim_async: Counter::new(),
            elim_async_reaped: Counter::new(),
            timeouts: Counter::new(),
            stalls: Counter::new(),
            frames: Gauge::new(),
            sites: SiteStats::new(),
            flight: FlightRecorder::new(cfg.flight_capacity),
            meta_cores: AtomicU64::new(0),
        }
    }

    /// The geometry this hub was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// The hub's current event time (largest `wall_ns` seen).
    pub fn now_ns(&self) -> u64 {
        self.max_wall.load(Relaxed)
    }

    /// `effective_cores` from the capture's Meta event, if one arrived.
    pub fn effective_cores(&self) -> Option<u64> {
        match self.meta_cores.load(Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// The always-on ring of recent events.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The per-site statistics feeding the PI table.
    pub fn sites(&self) -> &SiteStats {
        &self.sites
    }

    /// Fold one event in. This is the hot path; see the module docs for
    /// its cost budget.
    pub fn absorb(&self, ev: &Event) {
        self.flight.record_event(ev);
        let wall = ev.wall_ns;
        self.max_wall.fetch_max(wall, Relaxed);
        let slot = self.slot_for(wall);
        let bump = |i: usize| {
            slot.counts[i].fetch_add(1, Relaxed);
        };
        bump(c::EVENTS);
        match &ev.kind {
            EventKind::Spawn { .. } => {
                bump(c::SPAWNS);
                self.spawns.incr();
            }
            EventKind::Commit {
                overhead_ns, site, ..
            } => {
                bump(c::COMMITS);
                self.commits.incr();
                if let Some(site) = site {
                    self.sites.record_overhead(*site, *overhead_ns);
                    self.sites.record_commit(*site);
                }
            }
            EventKind::EliminateSync { overhead_ns, site } => {
                bump(c::ELIMS);
                self.elim_sync.incr();
                if let Some(site) = site {
                    self.sites.record_overhead(*site, *overhead_ns);
                }
            }
            EventKind::EliminateAsync => {
                bump(c::ELIMS);
                self.elim_async.incr();
            }
            EventKind::FrameFree { frames } => {
                // Async losers surface to the hub as the frame frees
                // their teardown produces; treat any free as backlog
                // drain progress (saturating, like the gauge).
                self.frames.sub(*frames);
                if self.elim_async_reaped.get() < self.elim_async.get() {
                    self.elim_async_reaped.incr();
                }
            }
            EventKind::Timeout => {
                self.timeouts.incr();
            }
            EventKind::GuardVerdict {
                duration_ns,
                alt,
                site,
                ..
            } => {
                bump(c::GUARDS);
                if let (Some(site), Some(alt)) = (site, alt) {
                    self.sites.record_guard(*site, *alt, *duration_ns);
                }
            }
            EventKind::CowCopy { .. } | EventKind::ZeroFill { .. } => {
                bump(c::FAULTS);
                self.frames.add(1);
            }
            EventKind::NetSend { .. } => bump(c::NET_FRAMES),
            EventKind::NetRecv { rtt_ns, .. } => {
                bump(c::NET_FRAMES);
                slot.counts[c::RTT_SUM].fetch_add(*rtt_ns, Relaxed);
                bump(c::RTT_COUNT);
            }
            EventKind::NetRetry { .. } => bump(c::NET_RETRIES),
            EventKind::CpuSamples {
                samples,
                period_ns,
                site: Some(site),
                alt,
                ..
            } => {
                // `None` alt clamps into the last cell, same as
                // overflow alts do for guard samples.
                self.sites.record_cpu(
                    *site,
                    alt.unwrap_or(u64::MAX),
                    samples.saturating_mul(*period_ns),
                );
            }
            EventKind::CpuSamples { site: None, .. } => {}
            EventKind::WorkerUtil { busy, total, .. } => {
                slot.counts[c::BUSY_TICKS].fetch_add(*busy, Relaxed);
                slot.counts[c::TOTAL_TICKS].fetch_add(*total, Relaxed);
            }
            EventKind::Stall { .. } => {
                self.stalls.incr();
            }
            EventKind::Meta { effective_cores } => {
                self.meta_cores.store(*effective_cores, Relaxed);
            }
            _ => {}
        }
    }

    /// The slot for `wall_ns`, rotated forward if it still holds an
    /// older epoch.
    fn slot_for(&self, wall_ns: u64) -> &Slot {
        let epoch = wall_ns / self.cfg.slot_ns;
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        let cur = slot.epoch.load(Relaxed);
        if cur != epoch
            && cur < epoch
            && slot
                .epoch
                .compare_exchange(cur, epoch, Relaxed, Relaxed)
                .is_ok()
        {
            for count in &slot.counts {
                count.store(0, Relaxed);
            }
        }
        slot
    }

    /// Sliding-window rates as of the hub's event time.
    pub fn rates(&self) -> Rates {
        let now = self.max_wall.load(Relaxed);
        let now_epoch = now / self.cfg.slot_ns;
        let lo = now_epoch.saturating_sub(self.slots.len() as u64 - 1);
        let mut sums = [0u64; c::N];
        for slot in &self.slots {
            let epoch = slot.epoch.load(Relaxed);
            if epoch >= lo && epoch <= now_epoch {
                for (sum, count) in sums.iter_mut().zip(&slot.counts) {
                    *sum += count.load(Relaxed);
                }
            }
        }
        let window_ns = now.saturating_sub(lo * self.cfg.slot_ns).max(1);
        let per_s = |n: u64| n as f64 * 1e9 / window_ns as f64;
        Rates {
            window_ns,
            events_s: per_s(sums[c::EVENTS]),
            spawns_s: per_s(sums[c::SPAWNS]),
            commits_s: per_s(sums[c::COMMITS]),
            elims_s: per_s(sums[c::ELIMS]),
            guards_s: per_s(sums[c::GUARDS]),
            faults_s: per_s(sums[c::FAULTS]),
            net_frames_s: per_s(sums[c::NET_FRAMES]),
            net_retries_s: per_s(sums[c::NET_RETRIES]),
            rtt_mean_ns: if sums[c::RTT_COUNT] == 0 {
                0.0
            } else {
                sums[c::RTT_SUM] as f64 / sums[c::RTT_COUNT] as f64
            },
            cpu_util: if sums[c::TOTAL_TICKS] == 0 {
                0.0
            } else {
                sums[c::BUSY_TICKS] as f64 / sums[c::TOTAL_TICKS] as f64
            },
        }
    }

    /// Lifetime watchdog stall events seen in the stream.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// The call site burning the most estimated on-CPU time, with its
    /// share (0..=1) of all attributed CPU. `None` until profiler
    /// flushes arrive.
    pub fn hot_site(&self) -> Option<(String, f64)> {
        let table = self.site_table();
        let site_cpu = |s: &SiteSnapshot| s.alts.iter().map(|a| a.cpu_ns).sum::<f64>();
        let total: f64 = table.iter().map(site_cpu).sum();
        if total <= 0.0 {
            return None;
        }
        table
            .into_iter()
            .max_by(|a, b| site_cpu(a).total_cmp(&site_cpu(b)))
            .map(|s| {
                let share = site_cpu(&s) / total;
                (s.label, share)
            })
    }

    /// Current levels from the lifetime counters.
    pub fn gauges(&self) -> Gauges {
        let spawns = self.spawns.get();
        let done =
            self.commits.get() + self.elim_sync.get() + self.elim_async.get() + self.timeouts.get();
        Gauges {
            live_worlds: spawns.saturating_sub(done),
            frames_resident: self.frames.get(),
            elim_backlog: self
                .elim_async
                .get()
                .saturating_sub(self.elim_async_reaped.get()),
        }
    }

    /// The per-site `Rμ`/`Ro`/`PI` table, advancing the decay clock
    /// first. Reads drive decay: the histograms halve once per
    /// `decay_interval_ns` of *event time* elapsed since the last step,
    /// so an idle stream stops decaying and a replayed one decays
    /// identically.
    pub fn site_table(&self) -> Vec<SiteSnapshot> {
        self.maybe_decay();
        self.sites.snapshot()
    }

    fn maybe_decay(&self) {
        let now = self.max_wall.load(Relaxed);
        let last = self.last_decay.load(Relaxed);
        if now.saturating_sub(last) >= self.cfg.decay_interval_ns
            && self
                .last_decay
                .compare_exchange(last, now, Relaxed, Relaxed)
                .is_ok()
        {
            self.sites.decay();
        }
    }
}

impl EventSink for TelemetryHub {
    fn record(&self, ev: &Event) {
        self.absorb(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(kind: EventKind, wall_ns: u64) -> Event {
        let mut ev = Event::new(kind, 1, Some(0), 0);
        ev.wall_ns = wall_ns;
        ev
    }

    fn hub_ms(slot_ms: u64, slots: usize) -> TelemetryHub {
        TelemetryHub::new(TelemetryConfig {
            slot_ns: slot_ms * 1_000_000,
            slots,
            ..TelemetryConfig::default()
        })
    }

    #[test]
    fn rates_cover_only_the_window() {
        let hub = hub_ms(10, 4);
        // 100 spawns in the first 10ms slot, then silence until 1s.
        for i in 0..100u64 {
            hub.absorb(&at(EventKind::Spawn { alt: 0 }, i * 100_000));
        }
        let early = hub.rates();
        assert!(early.spawns_s > 0.0);
        // An event far in the future rotates the window past the burst.
        hub.absorb(&at(EventKind::Rendezvous, 1_000_000_000));
        let late = hub.rates();
        assert_eq!(late.spawns_s, 0.0, "burst fell out of the window: {late:?}");
        assert!(late.events_s > 0.0, "the rendezvous itself is in-window");
    }

    #[test]
    fn gauges_track_lifecycle() {
        let hub = TelemetryHub::default();
        for w in 0..5u64 {
            hub.absorb(&at(EventKind::Spawn { alt: w }, w));
        }
        hub.absorb(&at(
            EventKind::Commit {
                dirty_pages: 1,
                overhead_ns: 10,
                site: None,
            },
            10,
        ));
        hub.absorb(&at(
            EventKind::EliminateSync {
                overhead_ns: 5,
                site: None,
            },
            11,
        ));
        hub.absorb(&at(EventKind::EliminateAsync, 12));
        let g = hub.gauges();
        assert_eq!(g.live_worlds, 2);
        assert_eq!(g.elim_backlog, 1);
        // Frame frees drain the async backlog.
        hub.absorb(&at(EventKind::FrameFree { frames: 1 }, 13));
        assert_eq!(hub.gauges().elim_backlog, 0);
    }

    #[test]
    fn frames_resident_is_event_arithmetic() {
        let hub = TelemetryHub::default();
        hub.absorb(&at(EventKind::ZeroFill { vpn: 0 }, 1));
        hub.absorb(&at(EventKind::CowCopy { vpn: 1, bytes: 64 }, 2));
        assert_eq!(hub.gauges().frames_resident, 2);
        hub.absorb(&at(EventKind::FrameFree { frames: 5 }, 3));
        assert_eq!(hub.gauges().frames_resident, 0, "saturates like the gauge");
    }

    #[test]
    fn rtt_window_mean_and_meta() {
        let hub = TelemetryHub::default();
        hub.absorb(&at(
            EventKind::NetRecv {
                node: 1,
                bytes: 64,
                rtt_ns: 1000,
            },
            1,
        ));
        hub.absorb(&at(
            EventKind::NetRecv {
                node: 1,
                bytes: 64,
                rtt_ns: 3000,
            },
            2,
        ));
        assert_eq!(hub.rates().rtt_mean_ns, 2000.0);
        assert_eq!(hub.effective_cores(), None);
        hub.absorb(&at(EventKind::Meta { effective_cores: 4 }, 3));
        assert_eq!(hub.effective_cores(), Some(4));
    }

    #[test]
    fn profiler_events_feed_util_stalls_and_hot_site() {
        let hub = TelemetryHub::default();
        assert_eq!(hub.rates().cpu_util, 0.0);
        assert_eq!(hub.hot_site(), None);
        // Two workers flush utilization: 3/4 + 1/4 busy → 50% overall.
        hub.absorb(&at(
            EventKind::WorkerUtil {
                worker: 0,
                busy: 3,
                total: 4,
            },
            1,
        ));
        hub.absorb(&at(
            EventKind::WorkerUtil {
                worker: 1,
                busy: 1,
                total: 4,
            },
            2,
        ));
        assert_eq!(hub.rates().cpu_util, 0.5);
        // CPU flushes only reach the site grid when attributed; the
        // hottest site needs a guard sample to have a table row.
        let hot = worlds_obs::site_id("rollup-test/hot").0;
        let cold = worlds_obs::site_id("rollup-test/cold").0;
        for site in [hot, cold] {
            hub.absorb(&at(
                EventKind::GuardVerdict {
                    pass: true,
                    duration_ns: 100,
                    alt: Some(0),
                    site: Some(site),
                },
                3,
            ));
        }
        hub.absorb(&at(
            EventKind::CpuSamples {
                samples: 30,
                period_ns: 100,
                site: Some(hot),
                alt: Some(0),
                phase: 2,
            },
            4,
        ));
        hub.absorb(&at(
            EventKind::CpuSamples {
                samples: 10,
                period_ns: 100,
                site: Some(cold),
                alt: Some(0),
                phase: 2,
            },
            5,
        ));
        // Unattributed samples (idle pool workers) go nowhere.
        hub.absorb(&at(
            EventKind::CpuSamples {
                samples: 99,
                period_ns: 100,
                site: None,
                alt: None,
                phase: 1,
            },
            6,
        ));
        let (label, share) = hub.hot_site().unwrap();
        assert_eq!(label, "rollup-test/hot");
        assert!((share - 0.75).abs() < 1e-9, "3000 of 4000 ns: {share}");
        // Stalls count.
        assert_eq!(hub.stalls(), 0);
        hub.absorb(&at(
            EventKind::Stall {
                site: Some(hot),
                phase: 2,
                waited_ns: 5_000_000_000,
            },
            7,
        ));
        assert_eq!(hub.stalls(), 1);
    }

    #[test]
    fn decay_is_event_time_driven() {
        let hub = TelemetryHub::new(TelemetryConfig {
            decay_interval_ns: 1000,
            ..TelemetryConfig::default()
        });
        let site = worlds_obs::site_id("rollup-test/decay").0;
        for i in 0..8u64 {
            hub.absorb(&at(
                EventKind::GuardVerdict {
                    pass: true,
                    duration_ns: 100,
                    alt: Some(0),
                    site: Some(site),
                },
                i,
            ));
        }
        let before: u64 = hub
            .site_table()
            .iter()
            .find(|s| s.site == site)
            .map(|s| s.alts.iter().map(|a| a.count).sum())
            .unwrap();
        assert_eq!(before, 8);
        // Advance event time past the decay interval and read again.
        hub.absorb(&at(EventKind::Rendezvous, 5000));
        let after: u64 = hub
            .site_table()
            .iter()
            .find(|s| s.site == site)
            .map(|s| s.alts.iter().map(|a| a.count).sum())
            .unwrap();
        assert_eq!(after, 4, "one half-life elapsed");
    }
}
