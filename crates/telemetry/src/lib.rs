//! `worlds-telemetry` — the live telemetry plane.
//!
//! `worlds-obs` answers "what happened" after the fact: counters you
//! read at the end, JSONL you replay offline. This crate answers "what
//! is happening *now*", cluster-wide, from the same event stream:
//!
//! * [`TelemetryHub`] — a lock-free [`EventSink`](worlds_obs::EventSink) that folds every
//!   event into sliding-window rollups (rates, gauges, mean RTT)
//!   the moment it is emitted. Snapshots are readable any time with
//!   bounded staleness — no replay, no locks on the hot path.
//! * [`SiteStats`] — per-call-site decaying histograms of guard
//!   durations (per alternative) and commit/elimination overhead,
//!   yielding live estimates of the paper's `Rμ`, `Ro` and
//!   `PI = Rμ/(1+Ro)` per speculation site (§3.3, Figures 3–4).
//! * The flight recorder — every hub keeps its last 4 096 events in a
//!   [`RingSink`](worlds_obs::RingSink), `worlds-obs`'s one event ring,
//!   dumped to worlds-report-compatible JSONL by a panic hook
//!   ([`install_panic_dump`]), on `SIGUSR1`
//!   ([`install_sigusr1_dump`]), or on demand.
//! * [`Collector`] / [`Exporter`] — cluster export: each node streams
//!   its rollup snapshot over the `worlds-net` framed wire
//!   (`Request::Telemetry`) to a collector; `worlds-top`, the live
//!   viewer, renders the merged per-node / per-site tables over TCP.
//!   `worlds-report` replays captures and dumps offline.
//!
//! The division of labour with `worlds-obs` is strict: obs owns the
//! event vocabulary and the lock-free metric primitives; this crate
//! only *consumes* them. A process that never constructs a hub pays
//! exactly what it paid before this crate existed — the disabled
//! registry's single branch.
//!
//! ```
//! use std::sync::Arc;
//! use worlds_obs::{Event, EventKind, Registry};
//! use worlds_telemetry::TelemetryHub;
//!
//! let hub = Arc::new(TelemetryHub::default());
//! let obs = Registry::with_sinks(vec![hub.clone()]);
//! obs.emit(|| Event::new(EventKind::Spawn { alt: 0 }, 1, Some(0), 0));
//! assert_eq!(hub.gauges().live_worlds, 1);
//! ```

mod collect;
mod flight;
mod pi;
mod render;
mod rollup;
mod wire;

pub use collect::{
    install_node_handler, node_report, query_sessions, query_table, Collector, Exporter,
    COLLECTOR_NODE_ID,
};
pub use flight::{flight_dir, flight_path, install_panic_dump};
pub use pi::{AltSnapshot, SiteSnapshot, SiteStats, MAX_ALTS, MAX_SITES};
pub use render::{
    render_cluster, render_cluster_json, render_sessions, render_sessions_json, render_sites,
};
pub use rollup::{Gauges, Rates, TelemetryHub};
pub use wire::{
    decode_session_table, encode_session_table, encode_sessions_query, AltReport, NodeReport,
    SessionReport, SiteReport, TelemetryMsg, MSG_SESSIONS,
};

#[cfg(unix)]
pub use flight::install_sigusr1_dump;
