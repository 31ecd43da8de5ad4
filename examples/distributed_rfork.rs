//! The distributed case (§2.2, §3.4): Multiple Worlds across machines via
//! rfork (checkpoint/restore) — with the paper's 1989 LAN costs and a
//! modern datacenter for contrast.
//!
//! ```sh
//! cargo run --example distributed_rfork          # in-process transport
//! cargo run --example distributed_rfork -- --tcp # real loopback sockets
//! ```
//!
//! With `--tcp`, every node's store sits behind a `worlds-net` server and
//! each rfork / commit-back is a framed RPC over 127.0.0.1 — and a fault
//! proxy drops every 3rd transfer's first frame, so the run visibly
//! survives real timeouts and retransmits while committing the winner
//! exactly once.
//!
//! With `--telemetry` (alongside `--tcp`), the run also stands up the
//! live telemetry plane: a collector on its own loopback port, an
//! exporter pushing this process's rollups to it, and per-node query
//! handlers on every cluster server — point `worlds-top <collector
//! addr>` at it while the run holds (set `WORLDS_TELEMETRY_HOLD_MS` to
//! keep the collector up after the demos; `WORLDS_COLLECTOR_ADDR_FILE`
//! writes the address where scripts can find it).

use std::sync::Arc;

use worlds_kernel::VirtualTime;
use worlds_obs::{env, EventSink, JsonlSink, Registry, RingSink};
use worlds_remote::{run_distributed_block, Cluster, DistAlt, FaultSchedule, NetModel, NodeId};
use worlds_telemetry::{install_node_handler, render_cluster, Collector, Exporter, TelemetryHub};

/// A registry with the ring this example asserts against, plus a JSONL
/// sink when `WORLDS_OBS_JSONL` names a capture file, plus the shared
/// telemetry hub when `--telemetry` armed one. Each demo reopens the
/// path, so the file holds the most recent network's run.
fn registry(hub: Option<&Arc<TelemetryHub>>) -> (Registry, Arc<RingSink>) {
    let ring = Arc::new(RingSink::new(4096));
    let mut sinks: Vec<Arc<dyn EventSink>> = vec![ring.clone()];
    if let Some(path) = env::path(env::OBS_JSONL) {
        match JsonlSink::create(&path) {
            Ok(sink) => sinks.push(Arc::new(sink)),
            Err(e) => eprintln!("cannot open {}={}: {e}", env::OBS_JSONL, path.display()),
        }
    }
    if let Some(hub) = hub {
        sinks.push(hub.clone());
    }
    (Registry::with_sinks(sinks), ring)
}

fn demo(net: NetModel, tcp: bool, hub: Option<&Arc<TelemetryHub>>) {
    println!(
        "--- network: {} (transport: {}) ---",
        net.name,
        if tcp { "loopback tcp" } else { "in-process" }
    );
    // A 70 KB parent process (the §3.4 reference size).
    let (obs, ring) = registry(hub);
    let mut cluster = if tcp {
        Cluster::tcp(4, 4096, net, obs).expect("loopback cluster binds")
    } else {
        Cluster::with_obs(4, 4096, net, obs)
    };
    if tcp {
        // Drop every 3rd transfer's first delivery: the client must burn
        // a real deadline and retransmit. The winner still commits once.
        cluster.set_fault_schedule(FaultSchedule::every(3));
        // With telemetry armed, every cluster server also answers
        // Telemetry queries about this process's hub.
        if let Some(hub) = hub {
            for node in cluster.net_nodes() {
                install_node_handler(node, hub.clone());
            }
        }
    }
    let origin = cluster.create_world(NodeId(0));
    for vpn in 0..18 {
        cluster
            .write(origin, vpn, &[0xAA; 64])
            .expect("origin live");
    }

    let report = run_distributed_block(
        &mut cluster,
        origin,
        vec![
            DistAlt::new("conservative", VirtualTime::from_secs(40.0), |c, w| {
                c.write(w, 0, b"conservative answer").expect("replica live");
            }),
            DistAlt::new("heuristic", VirtualTime::from_secs(8.0), |c, w| {
                c.write(w, 0, b"heuristic answer!!!").expect("replica live");
            }),
            DistAlt::new("broken", VirtualTime::from_secs(1.0), |c, w| {
                c.write(w, 0, b"garbage").expect("replica live");
            })
            .guard(false),
        ],
    )
    .expect("block runs");

    println!("outcome:        {:?}", report.outcome);
    println!("response time:  {}", report.wall);
    println!("  rfork (out):  {}", report.rfork_total);
    println!(
        "  commit (back):{} ({} dirty page(s))",
        report.commit_cost, report.pages_shipped
    );
    let committed = cluster.read(origin, 0, 19).expect("origin live");
    println!("committed state: {:?}", String::from_utf8_lossy(&committed));
    assert!(report.succeeded());
    assert_eq!(&committed, b"heuristic answer!!!");
    if tcp {
        use worlds_obs::EventKind;
        let events = ring.events();
        let commits = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Commit { .. }))
            .count();
        let retries = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NetRetry { .. }))
            .count();
        let timeouts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NetTimeout { .. }))
            .count();
        println!("wire: {retries} retransmit(s), {timeouts} real timeout(s), {commits} commit");
        assert_eq!(commits, 1, "the winner commits exactly once");
        assert!(retries >= 1, "the fault proxy must force a retransmit");
    }
    println!();
}

fn main() {
    let tcp = std::env::args().any(|a| a == "--tcp");
    let telemetry = std::env::args().any(|a| a == "--telemetry");
    println!("distributed Multiple Worlds: alternatives rfork'ed to remote nodes,");
    println!("winner's dirty pages shipped home (paper: ~1 s per 70 KB rfork, 1989 LAN)\n");

    // The live telemetry plane: one hub fed by every demo's registry, an
    // exporter pushing it to a collector, the collector queryable by
    // worlds-top / worlds-report --live while the run holds.
    let plane = if telemetry {
        let hub = Arc::new(TelemetryHub::default());
        let collector = Collector::start(worlds_obs::Registry::disabled())
            .expect("telemetry collector binds on loopback");
        println!("telemetry: collector on {}\n", collector.addr());
        if let Ok(path) = std::env::var("WORLDS_COLLECTOR_ADDR_FILE") {
            if !path.is_empty() {
                if let Err(e) = std::fs::write(&path, collector.addr().to_string()) {
                    eprintln!("cannot write WORLDS_COLLECTOR_ADDR_FILE={path}: {e}");
                }
            }
        }
        let exporter = Exporter::start(
            hub.clone(),
            0,
            collector.addr(),
            std::time::Duration::from_millis(100),
        );
        Some((hub, collector, exporter))
    } else {
        None
    };
    let hub = plane.as_ref().map(|(hub, _, _)| hub);

    demo(NetModel::lan_1989(), tcp, hub);
    demo(NetModel::datacenter(), tcp, hub);
    println!(
        "reading: on the 1989 LAN the ~1 s rforks wash out unless the alternatives run\n\
         tens of seconds (the paper's caveat); on a modern network the same block's\n\
         overhead is microseconds — R_o collapses and PI → R_mu (Figure 4's lesson)."
    );

    if let Some((_, collector, mut exporter)) = plane {
        exporter.stop();
        println!("\n{}", render_cluster(&collector.table()));
        // Let scripts (the CI smoke job) query the live collector before
        // it winds down.
        if let Some(hold) = std::env::var("WORLDS_TELEMETRY_HOLD_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(std::time::Duration::from_millis(hold));
        }
        collector.shutdown();
    }
}
