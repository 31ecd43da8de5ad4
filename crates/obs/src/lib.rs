//! `worlds-obs` — unified observability for speculative worlds.
//!
//! One [`Registry`] handle threads through the kernel, page store, IPC
//! router, and remote cluster. Disabled (the default) it is a single
//! `Option` that is `None`: every instrumentation site is one branch and
//! no event is ever constructed. Enabled, each lifecycle moment becomes
//! an [`Event`] that is folded into lock-free [`RunStats`] and fanned
//! out to pluggable [`EventSink`]s — an in-memory ring for tests, a
//! JSONL stream for offline analysis.
//!
//! ```
//! use worlds_obs::{Event, EventKind, Registry};
//!
//! let (obs, ring) = Registry::with_ring(1024);
//! obs.emit(|| Event::new(EventKind::Spawn { alt: 0 }, 1, Some(0), 0));
//! assert_eq!(ring.events().len(), 1);
//! assert_eq!(obs.stats().unwrap().kernel.worlds_spawned.get(), 1);
//! println!("{}", obs.summary().unwrap());
//! ```

pub mod env;
mod event;
mod metrics;
mod report;
mod sink;
pub mod site;
pub mod span;
pub mod trace_export;

pub use event::{Event, EventKind, ParseError};
pub use metrics::{fmt_ns, Counter, Gauge, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use report::{
    replay, ExecCounters, IpcCounters, KernelCounters, NetCounters, PageCounters, RemoteCounters,
    RunStats,
};
pub use sink::{EventSink, JsonlSink, RingSink};
pub use site::{learn_site_label, site_id, site_label, site_label_or_anon, SiteId};
pub use span::{SpanOutcome, SpanTree, TraceCtx, WorldSpan};
pub use trace_export::{chrome_trace_json, validate_json};

use std::sync::Arc;
use std::time::Instant;

/// Everything behind an enabled registry.
pub struct Inner {
    /// Aggregated counters and histograms.
    pub stats: RunStats,
    sinks: Vec<Arc<dyn EventSink>>,
    epoch: Instant,
    /// Site ids already described to this registry's stream.
    announced_sites: std::sync::Mutex<std::collections::HashSet<u64>>,
}

/// The observability handle instrumented subsystems hold.
///
/// Cloning is a refcount bump; all clones share one set of statistics
/// and sinks. A disabled registry ([`Registry::disabled`], also
/// `Default`) costs one predictable branch per instrumentation site.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// The no-op registry: nothing recorded, nothing allocated.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// An enabled registry with no sinks: counters and histograms only.
    pub fn enabled() -> Registry {
        Registry::with_sinks(Vec::new())
    }

    /// An enabled registry fanning events out to `sinks`.
    pub fn with_sinks(sinks: Vec<Arc<dyn EventSink>>) -> Registry {
        Registry {
            inner: Some(Arc::new(Inner {
                stats: RunStats::new(),
                sinks,
                epoch: Instant::now(),
                announced_sites: std::sync::Mutex::new(std::collections::HashSet::new()),
            })),
        }
    }

    /// An enabled registry with a ring buffer of the last `capacity`
    /// events, returning the ring handle for inspection.
    pub fn with_ring(capacity: usize) -> (Registry, Arc<RingSink>) {
        let ring = Arc::new(RingSink::new(capacity));
        (Registry::with_sinks(vec![ring.clone()]), ring)
    }

    /// Build from the environment ([`env::OBS`], [`env::OBS_JSONL`];
    /// see [`env`](mod@env) for the knobs and their parse rules):
    /// disabled unless one of them is set. An unwritable JSONL path
    /// disables the sink with a note on stderr rather than failing the
    /// run.
    pub fn from_env() -> Registry {
        let jsonl = env::path(env::OBS_JSONL);
        if !env::flag(env::OBS) && jsonl.is_none() {
            return Registry::disabled();
        }
        let mut sinks: Vec<Arc<dyn EventSink>> = Vec::new();
        if let Some(path) = jsonl {
            match JsonlSink::create(&path) {
                Ok(sink) => sinks.push(Arc::new(sink)),
                Err(e) => eprintln!(
                    "worlds-obs: cannot open {}={}: {e}",
                    env::OBS_JSONL,
                    path.display()
                ),
            }
        }
        let obs = Registry::with_sinks(sinks);
        // Stamp capture provenance at the head of the stream so replay
        // tooling can warn when a "parallel" capture never had cores to
        // run on. `from_env` only — programmatic constructors stay
        // event-free so ring-length assertions elsewhere hold.
        obs.emit(|| {
            Event::new(
                EventKind::Meta {
                    effective_cores: effective_cores(),
                },
                0,
                None,
                0,
            )
        });
        obs
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Run `f` against the live internals, if enabled. The idiom for
    /// touching counters directly on paths too hot for events:
    /// `obs.with(|i| i.stats.pagestore.faults.incr())`.
    #[inline]
    pub fn with<F: FnOnce(&Inner)>(&self, f: F) {
        if let Some(inner) = &self.inner {
            f(inner);
        }
    }

    /// Emit one event. The closure only runs when enabled, so disabled
    /// call sites never construct the event. The registry stamps
    /// wall-clock time, folds the event into [`RunStats`] (the same
    /// mapping JSONL replay uses), then hands it to every sink.
    #[inline]
    pub fn emit<F: FnOnce() -> Event>(&self, make: F) {
        if let Some(inner) = &self.inner {
            let mut ev = make();
            ev.wall_ns = inner.epoch.elapsed().as_nanos() as u64;
            inner.stats.absorb(&ev);
            for sink in &inner.sinks {
                sink.record(&ev);
            }
        }
    }

    /// Describe `site` in this registry's stream, once. Site ids are
    /// process-local, so a capture that carries them must also carry
    /// their labels to be renderable anywhere else; callers running a
    /// labelled block announce the site before its first events.
    /// Disabled registries and repeat announcements are free-ish (one
    /// branch, then one mutex op).
    pub fn announce_site(&self, site: SiteId) {
        if let Some(inner) = &self.inner {
            if !inner
                .announced_sites
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(site.0)
            {
                return;
            }
            if let Some(label) = site_label(site.0) {
                self.emit(|| {
                    Event::new(
                        EventKind::SiteLabel {
                            site: site.0,
                            label,
                        },
                        0,
                        None,
                        0,
                    )
                });
            }
        }
    }

    /// Nanoseconds since this registry was enabled (0 when disabled).
    ///
    /// Real-thread executors have no discrete-event clock; they stamp
    /// `vt_ns` with this so virtual time coincides with wall time.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.epoch.elapsed().as_nanos() as u64)
    }

    /// The live statistics, if enabled.
    pub fn stats(&self) -> Option<&RunStats> {
        self.inner.as_deref().map(|i| &i.stats)
    }

    /// Flush every sink (JSONL buffers, etc.).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.flush();
            }
        }
    }

    /// The end-of-run summary table, if enabled.
    pub fn summary(&self) -> Option<String> {
        self.stats().map(|s| s.render_summary())
    }
}

/// CPU cores this process can actually use (1 when the runtime cannot
/// tell). The number every `BENCH_*.json` records as `effective_cores`
/// and the value [`Registry::from_env`] stamps into its Meta event.
pub fn effective_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Registry(disabled)"),
            Some(i) => write!(f, "Registry(enabled, {} sinks)", i.sinks.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_never_builds_events() {
        let obs = Registry::disabled();
        let mut built = false;
        obs.emit(|| {
            built = true;
            Event::new(EventKind::Rendezvous, 1, None, 0)
        });
        assert!(!built, "closure must not run when disabled");
        assert!(obs.stats().is_none());
        assert!(obs.summary().is_none());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn emit_stamps_wall_time_and_feeds_stats_and_sinks() {
        let (obs, ring) = Registry::with_ring(8);
        obs.emit(|| Event::new(EventKind::Spawn { alt: 2 }, 7, Some(1), 500));
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].world, 7);
        assert_eq!(events[0].vt_ns, 500);
        let stats = obs.stats().unwrap();
        assert_eq!(stats.kernel.worlds_spawned.get(), 1);
    }

    #[test]
    fn clones_share_state() {
        let obs = Registry::enabled();
        let clone = obs.clone();
        clone.emit(|| Event::new(EventKind::MsgAccept, 1, None, 0));
        assert_eq!(obs.stats().unwrap().ipc.accepts.get(), 1);
    }

    #[test]
    fn from_env_round_trip() {
        // Env mutation: test process only, distinct var values per case.
        std::env::remove_var("WORLDS_OBS");
        std::env::remove_var("WORLDS_OBS_JSONL");
        assert!(!Registry::from_env().is_enabled());
        std::env::set_var("WORLDS_OBS", "0");
        assert!(!Registry::from_env().is_enabled());
        std::env::set_var("WORLDS_OBS", "1");
        assert!(Registry::from_env().is_enabled());
        std::env::remove_var("WORLDS_OBS");
    }
}
