//! Cluster export: exporters push rollup snapshots, a collector
//! aggregates, viewers query.
//!
//! Everything rides the existing worlds-net machinery — framed wire,
//! corr-id retries, reply ledger, fault proxies — via the opaque
//! `Request::Telemetry` RPC:
//!
//! * A [`Collector`] is a plain [`NetNode`] (fresh private
//!   [`PageStore`], so it can also serve pages if anyone asks) with a
//!   telemetry handler that folds `Push` payloads into a per-node
//!   table and answers `Query` with the whole table.
//! * An [`Exporter`] is a thread beside a [`TelemetryHub`] that builds
//!   a [`NodeReport`] every interval and pushes it over one [`Conn`].
//!   Telemetry uses the same retry policy as page traffic; a dead
//!   collector costs the exporter thread its retries, never the
//!   instrumented program anything.
//! * [`install_node_handler`] makes any serving node answer `Query`
//!   directly with its own single-row table, so `worlds-top <addr>`
//!   works against a lone node with no collector in between.
//! * [`query_table`] is the viewer side: one connection, one query,
//!   decoded table.

use crate::rollup::TelemetryHub;
use crate::wire::{
    decode_msg, decode_session_table, decode_table, encode_push, encode_query,
    encode_sessions_query, encode_table, NodeReport, SessionReport, TelemetryMsg,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use worlds_net::{Conn, NetNode, Reply, Request, RetryPolicy};
use worlds_obs::Registry;
use worlds_pagestore::PageStore;

/// Node id a standalone collector serves under — far outside any real
/// cluster's id range, purely diagnostic.
pub const COLLECTOR_NODE_ID: u64 = u64::MAX;

/// Build `node`'s current [`NodeReport`] from its hub.
pub fn node_report(hub: &TelemetryHub, node: u64) -> NodeReport {
    NodeReport::from_snapshots(
        node,
        hub.now_ns(),
        &hub.rates(),
        &hub.gauges(),
        hub.stalls(),
        &hub.site_table(),
    )
}

/// Answer `Query` frames on `node` with its own single-row table, so
/// viewers can point at any exporter-less node directly. `Push` is
/// refused — aggregation is the collector's job.
pub fn install_node_handler(node: &NetNode, hub: Arc<TelemetryHub>) {
    let id = node.node_id();
    node.set_telemetry_handler(Arc::new(move |bytes| match decode_msg(bytes)? {
        TelemetryMsg::Query => Ok(Some(encode_table(&[node_report(&hub, id)]))),
        TelemetryMsg::Push(_) => Err("this node is not a collector".into()),
        TelemetryMsg::SessionsQuery => Err("this node is not a session front door".into()),
    }));
}

/// A telemetry aggregation point: one loopback listener, one table.
pub struct Collector {
    node: NetNode,
    table: Arc<Mutex<BTreeMap<u64, NodeReport>>>,
}

impl Collector {
    /// Bind a collector on a kernel-assigned loopback port. `obs`
    /// instruments the collector's own wire traffic (usually
    /// `Registry::disabled()` — the collector watching itself is
    /// rarely the point).
    pub fn start(obs: Registry) -> std::io::Result<Collector> {
        let node = NetNode::serve(COLLECTOR_NODE_ID, PageStore::new(4096), obs)?;
        let table: Arc<Mutex<BTreeMap<u64, NodeReport>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let shared = table.clone();
        node.set_telemetry_handler(Arc::new(move |bytes| match decode_msg(bytes)? {
            TelemetryMsg::Push(report) => {
                shared
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(report.node, report);
                Ok(None)
            }
            TelemetryMsg::Query => {
                let table: Vec<NodeReport> = shared
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .values()
                    .cloned()
                    .collect();
                Ok(Some(encode_table(&table)))
            }
            TelemetryMsg::SessionsQuery => Err("this node is not a session front door".into()),
        }));
        Ok(Collector { node, table })
    }

    /// Where exporters and viewers connect.
    pub fn addr(&self) -> SocketAddr {
        self.node.addr()
    }

    /// The current table, one row per node that has pushed, node order.
    pub fn table(&self) -> Vec<NodeReport> {
        self.table
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Stop serving (dropping also stops).
    pub fn shutdown(&self) {
        self.node.shutdown();
    }
}

/// A background thread pushing one node's rollups to a collector.
pub struct Exporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Exporter {
    /// Push `hub`'s snapshot for cluster node `node` to `collector`
    /// every `interval`, and once more on [`Exporter::stop`] so even a
    /// short run registers. Export traffic is deliberately *not*
    /// instrumented — a telemetry plane that inflates its own
    /// `net_frames_s` would be measuring itself.
    pub fn start(
        hub: Arc<TelemetryHub>,
        node: u64,
        collector: SocketAddr,
        interval: Duration,
    ) -> Exporter {
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = stop.clone();
        let handle = std::thread::Builder::new()
            .name(format!("worlds-export-{node}"))
            .spawn(move || {
                let mut conn = Conn::new(
                    COLLECTOR_NODE_ID,
                    collector,
                    RetryPolicy::fast(),
                    Registry::disabled(),
                );
                loop {
                    let push = Request::Telemetry {
                        payload: encode_push(&node_report(&hub, node)),
                    };
                    let _ = conn.call(&push);
                    if stopping.load(Ordering::Acquire) {
                        return;
                    }
                    // Sleep in short slices so stop() is prompt.
                    let mut left = interval;
                    while !stopping.load(Ordering::Acquire) && left > Duration::ZERO {
                        let step = left.min(Duration::from_millis(25));
                        std::thread::sleep(step);
                        left = left.saturating_sub(step);
                    }
                }
            })
            .expect("spawn exporter thread");
        Exporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Final push, then join the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Ask whatever serves `addr` — collector or lone node — for its
/// telemetry table.
pub fn query_table(addr: SocketAddr) -> Result<Vec<NodeReport>, String> {
    let mut conn = Conn::new(0, addr, RetryPolicy::fast(), Registry::disabled());
    let req = Request::Telemetry {
        payload: encode_query(),
    };
    match conn.call(&req).map_err(|e| e.to_string())? {
        Reply::Telemetry { payload } => decode_table(&payload),
        Reply::Nack { detail, .. } => Err(format!("refused: {detail}")),
        Reply::Ack { .. } => Err("peer answered a query with the wrong reply kind".into()),
    }
}

/// Ask a worlds-server front door at `addr` for its per-session table.
/// Plain nodes and collectors refuse the query with a Nack.
pub fn query_sessions(addr: SocketAddr) -> Result<Vec<SessionReport>, String> {
    let mut conn = Conn::new(0, addr, RetryPolicy::fast(), Registry::disabled());
    let req = Request::Telemetry {
        payload: encode_sessions_query(),
    };
    match conn.call(&req).map_err(|e| e.to_string())? {
        Reply::Telemetry { payload } => decode_session_table(&payload),
        Reply::Nack { detail, .. } => Err(format!("refused: {detail}")),
        Reply::Ack { .. } => Err("peer answered a query with the wrong reply kind".into()),
    }
}
