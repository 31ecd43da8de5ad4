//! The catalogue: every event kind, counter, gauge and histogram has a
//! reader.
//!
//! An instrument that nothing reads costs emit time and lines and
//! answers no question. Each entry below names at least one file that
//! reads the item, and the identifier it reads it by. A reader is a
//! benchmark, a CI step, an example, a test, or code that consumes the
//! item: a file under some crate's `src` or `tests`, under
//! `benchmark/src`, under `examples` or the root `tests`, or the CI
//! workflow. The summary table (`report.rs`, where every counter is
//! rendered), the event codec (`event.rs`) and the golden fixture do
//! not count: they show an item, they do not use it.
//!
//! The test fails when a kind or counter is missing from the table,
//! when the table names one that no longer exists, or when a named
//! file does not contain its identifier. Event kinds are catalogued by
//! an exhaustive `match`, so a new variant does not compile until it
//! has an entry.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use worlds_obs::{EventKind, RunStats};

/// `(file relative to the workspace root, identifier it reads by)`.
type Reader = (&'static str, &'static str);

const ROLLUP: &str = "crates/telemetry/src/rollup.rs";
const REPORT_BIN: &str = "crates/telemetry/src/bin/worlds_report.rs";
const SPAN: &str = "crates/obs/src/span.rs";
const PROTOCOL: &str = "benchmark/src/protocol.rs";
const CLUSTER: &str = "crates/remote/src/cluster.rs";

/// Who reads each event kind.
fn kind_readers(kind: &EventKind) -> &'static [Reader] {
    match kind {
        EventKind::Spawn { .. } => &[(ROLLUP, "EventKind::Spawn")],
        EventKind::GuardVerdict { .. } => &[(ROLLUP, "EventKind::GuardVerdict")],
        EventKind::Rendezvous => &[
            ("crates/kernel/src/trace.rs", "EventKind::Rendezvous"),
            (SPAN, "EventKind::Rendezvous"),
        ],
        EventKind::Commit { .. } => &[(ROLLUP, "EventKind::Commit")],
        EventKind::EliminateSync { .. } => &[(ROLLUP, "EventKind::EliminateSync")],
        EventKind::EliminateAsync => &[(ROLLUP, "EventKind::EliminateAsync")],
        EventKind::Timeout => &[(ROLLUP, "EventKind::Timeout")],
        EventKind::CowCopy { .. } => &[(ROLLUP, "EventKind::CowCopy")],
        EventKind::ZeroFill { .. } => &[(ROLLUP, "EventKind::ZeroFill")],
        EventKind::FrameFree { .. } => &[(ROLLUP, "EventKind::FrameFree")],
        EventKind::FrameDedup { .. } => &[(REPORT_BIN, "EventKind::FrameDedup")],
        EventKind::NetCacheEvict { .. } => &[(REPORT_BIN, "EventKind::NetCacheEvict")],
        EventKind::Checkpoint { .. } => &[(SPAN, "EventKind::Checkpoint")],
        EventKind::MsgAccept => &[(SPAN, "EventKind::MsgAccept")],
        EventKind::MsgExtend => &[(SPAN, "EventKind::MsgExtend")],
        EventKind::MsgIgnore => &[(SPAN, "EventKind::MsgIgnore")],
        EventKind::MsgSplit => &[(SPAN, "EventKind::MsgSplit")],
        EventKind::SplitSpawn => &[(SPAN, "EventKind::SplitSpawn")],
        EventKind::RemoteFork { .. } => &[(SPAN, "EventKind::RemoteFork")],
        EventKind::RpcSend { .. } => &[(
            "crates/remote/tests/transport_parity.rs",
            "EventKind::RpcSend",
        )],
        EventKind::RpcRetry { .. } => &[(
            "crates/remote/tests/transport_parity.rs",
            "EventKind::RpcRetry",
        )],
        EventKind::RpcTimeout { .. } => &[(
            "crates/remote/tests/transport_parity.rs",
            "EventKind::RpcTimeout",
        )],
        EventKind::NetSend { .. } => &[(ROLLUP, "EventKind::NetSend")],
        EventKind::NetRecv { .. } => &[(ROLLUP, "EventKind::NetRecv")],
        EventKind::NetRetry { .. } => &[(ROLLUP, "EventKind::NetRetry")],
        EventKind::NetTimeout { .. } => &[(REPORT_BIN, "EventKind::NetTimeout")],
        EventKind::NetNack { .. } => &[(REPORT_BIN, "EventKind::NetNack")],
        EventKind::CpuSamples { .. } => &[(ROLLUP, "EventKind::CpuSamples")],
        EventKind::WorkerUtil { .. } => &[(ROLLUP, "EventKind::WorkerUtil")],
        EventKind::Stall { .. } => &[(ROLLUP, "EventKind::Stall")],
        EventKind::Meta { .. } => &[(ROLLUP, "EventKind::Meta")],
        // Parsing a `site_label` line teaches the replaying process
        // the label; every renderer of a site reads it back from there.
        EventKind::SiteLabel { .. } => &[("crates/obs/src/site.rs", "fn learn_site_label")],
    }
}

/// One value of every kind.
fn every_kind() -> Vec<EventKind> {
    vec![
        EventKind::Spawn { alt: 0 },
        EventKind::GuardVerdict {
            pass: true,
            duration_ns: 0,
            alt: None,
            site: None,
        },
        EventKind::Rendezvous,
        EventKind::Commit {
            dirty_pages: 0,
            overhead_ns: 0,
            site: None,
        },
        EventKind::EliminateSync {
            overhead_ns: 0,
            site: None,
        },
        EventKind::EliminateAsync,
        EventKind::Timeout,
        EventKind::CowCopy { vpn: 0, bytes: 0 },
        EventKind::ZeroFill { vpn: 0 },
        EventKind::FrameFree { frames: 0 },
        EventKind::FrameDedup { vpn: 0, bytes: 0 },
        EventKind::NetCacheEvict { node: 0, bytes: 0 },
        EventKind::Checkpoint {
            pages: 0,
            bytes: 0,
            duration_ns: 0,
        },
        EventKind::MsgAccept,
        EventKind::MsgExtend,
        EventKind::MsgIgnore,
        EventKind::MsgSplit,
        EventKind::SplitSpawn,
        EventKind::RemoteFork { node: 0 },
        EventKind::RpcSend {
            node: 0,
            bytes: 0,
            latency_ns: 0,
        },
        EventKind::RpcRetry {
            node: 0,
            attempt: 0,
        },
        EventKind::RpcTimeout {
            node: 0,
            waited_ns: 0,
        },
        EventKind::NetSend { node: 0, bytes: 0 },
        EventKind::NetRecv {
            node: 0,
            bytes: 0,
            rtt_ns: 0,
        },
        EventKind::NetRetry {
            node: 0,
            attempt: 0,
            backoff_ns: 0,
        },
        EventKind::NetTimeout {
            node: 0,
            waited_ns: 0,
        },
        EventKind::NetNack { node: 0, code: 0 },
        EventKind::CpuSamples {
            samples: 0,
            period_ns: 0,
            site: None,
            alt: None,
            phase: 0,
        },
        EventKind::WorkerUtil {
            worker: 0,
            busy: 0,
            total: 0,
        },
        EventKind::Stall {
            site: None,
            phase: 0,
            waited_ns: 0,
        },
        EventKind::Meta { effective_cores: 0 },
        EventKind::SiteLabel {
            site: 0,
            label: String::new(),
        },
    ]
}

/// Who reads each counter (`group.name`), gauge and histogram of
/// [`RunStats`].
const STATS: &[(&str, &[Reader])] = &[
    (
        "kernel.worlds_spawned",
        &[(PROTOCOL, "s.kernel.worlds_spawned")],
    ),
    (
        "kernel.guard_pass",
        &[("crates/core/src/speculation.rs", "s.kernel.guard_pass")],
    ),
    (
        "kernel.guard_fail",
        &[("crates/core/src/speculation.rs", "s.kernel.guard_fail")],
    ),
    (
        "kernel.rendezvous",
        &[("crates/kernel/tests/properties.rs", "s.kernel.rendezvous")],
    ),
    ("kernel.commits", &[(PROTOCOL, "s.kernel.commits")]),
    (
        "kernel.eliminations_sync",
        &[(PROTOCOL, "s.kernel.eliminations_sync")],
    ),
    (
        "kernel.eliminations_async",
        &[(PROTOCOL, "s.kernel.eliminations_async")],
    ),
    (
        "kernel.timeouts",
        &[("crates/kernel/tests/properties.rs", "s.kernel.timeouts")],
    ),
    (
        "pagestore.faults",
        &[("examples/flight_recorder.rs", "stats.pagestore.faults")],
    ),
    (
        "pagestore.page_copies",
        &[("examples/flight_recorder.rs", "stats.pagestore.page_copies")],
    ),
    (
        "pagestore.zero_fills",
        &[(
            "crates/pagestore/src/store.rs",
            "stats.pagestore.zero_fills",
        )],
    ),
    (
        "pagestore.bytes_copied",
        &[(
            "crates/pagestore/src/store.rs",
            "stats.pagestore.bytes_copied",
        )],
    ),
    (
        "pagestore.frames_freed",
        &[(
            "crates/pagestore/src/store.rs",
            "stats.pagestore.frames_freed",
        )],
    ),
    (
        "pagestore.checkpoints",
        &[(CLUSTER, "stats.pagestore.checkpoints")],
    ),
    (
        "dedupe.frames_deduped",
        &[(CLUSTER, "stats.dedupe.frames_deduped")],
    ),
    (
        "dedupe.cache_evictions",
        &[(CLUSTER, "dedupe.cache_evictions")],
    ),
    (
        "ipc.accepts",
        &[("crates/kernel/src/split.rs", "stats.ipc.accepts")],
    ),
    (
        "ipc.extends",
        &[("crates/kernel/src/split.rs", "stats.ipc.extends")],
    ),
    (
        "ipc.ignores",
        &[("crates/kernel/src/split.rs", "stats.ipc.ignores")],
    ),
    (
        "ipc.splits",
        &[("crates/kernel/src/split.rs", "stats.ipc.splits")],
    ),
    ("remote.rpc_sends", &[(CLUSTER, "stats.remote.rpc_sends")]),
    (
        "remote.rpc_retries",
        &[(CLUSTER, "stats.remote.rpc_retries")],
    ),
    (
        "remote.rpc_timeouts",
        &[(CLUSTER, "stats.remote.rpc_timeouts")],
    ),
    ("remote.bytes_sent", &[(CLUSTER, "stats.remote.bytes_sent")]),
    ("remote.rforks", &[(CLUSTER, "stats.remote.rforks")]),
    ("net.frames_sent", &[(PROTOCOL, "s.net.frames_sent")]),
    (
        "net.wire_bytes_sent",
        &[(PROTOCOL, "s.net.wire_bytes_sent")],
    ),
    ("net.retries", &[(PROTOCOL, "s.net.retries")]),
    ("net.timeouts", &[(PROTOCOL, "s.net.timeouts")]),
    ("net.nacks", &[(PROTOCOL, "s.net.nacks")]),
    (
        "prof.cpu_samples",
        &[("crates/bench/src/bin/bench_prof.rs", "prof.cpu_samples")],
    ),
    (
        "prof.stalls",
        &[("crates/bench/src/bin/bench_prof.rs", "prof.stalls")],
    ),
    ("exec.tasks_run", &[(PROTOCOL, "s.exec.tasks_run")]),
    ("exec.tasks_stolen", &[(PROTOCOL, "s.exec.tasks_stolen")]),
    (
        "exec.tasks_injected",
        &[(PROTOCOL, "s.exec.tasks_injected")],
    ),
    (
        "exec.fallback_threads",
        &[(PROTOCOL, "s.exec.fallback_threads")],
    ),
    (
        "exec.reaper_batches",
        &[(PROTOCOL, "s.exec.reaper_batches")],
    ),
    ("exec.reaper_worlds", &[(PROTOCOL, "s.exec.reaper_worlds")]),
    (
        "exec_queue_depth",
        &[("crates/exec/src/pool.rs", "stats.exec_queue_depth.get()")],
    ),
    (
        "frames_resident",
        &[(
            "crates/pagestore/src/store.rs",
            "stats.frames_resident.get()",
        )],
    ),
    (
        "commit_latency",
        &[("crates/core/src/speculation.rs", "s.commit_latency")],
    ),
    (
        "elim_latency",
        &[("crates/core/src/speculation.rs", "s.elim_latency")],
    ),
    (
        "checkpoint_duration",
        &[(CLUSTER, "stats.checkpoint_duration")],
    ),
    ("rpc_latency", &[(CLUSTER, "stats.rpc_latency")]),
    (
        "net_rtt",
        &[("crates/net/tests/loopback.rs", "stats.net_rtt")],
    ),
];

/// Every counter, gauge and histogram name `RunStats` has. The struct
/// pattern names every field (no `..`), so a new field does not compile
/// until it is listed here.
fn stats_names() -> BTreeSet<String> {
    let stats = RunStats::new();
    let RunStats {
        kernel,
        pagestore,
        dedupe,
        ipc,
        remote,
        net,
        prof,
        exec,
        exec_queue_depth: _,
        frames_resident: _,
        commit_latency: _,
        elim_latency: _,
        checkpoint_duration: _,
        rpc_latency: _,
        net_rtt: _,
    } = &stats;
    let groups = [
        ("kernel", kernel.snapshot()),
        ("pagestore", pagestore.snapshot()),
        ("dedupe", dedupe.snapshot()),
        ("ipc", ipc.snapshot()),
        ("remote", remote.snapshot()),
        ("net", net.snapshot()),
        ("prof", prof.snapshot()),
        ("exec", exec.snapshot()),
    ];
    let mut names: BTreeSet<String> = groups
        .iter()
        .flat_map(|(group, counters)| counters.iter().map(move |(n, _)| format!("{group}.{n}")))
        .collect();
    for field in [
        "exec_queue_depth",
        "frames_resident",
        "commit_latency",
        "elim_latency",
        "checkpoint_duration",
        "rpc_latency",
        "net_rtt",
    ] {
        names.insert(field.to_string());
    }
    names
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Problems with one item's readers (empty when it has a good one).
fn check_readers(item: &str, readers: &[Reader]) -> Vec<String> {
    const NOT_READERS: [&str; 3] = [
        "crates/obs/src/report.rs",
        "crates/obs/src/event.rs",
        "crates/obs/tests/catalogue.rs",
    ];
    if readers.is_empty() {
        return vec![format!("{item}: no reader")];
    }
    let mut problems = Vec::new();
    for &(file, ident) in readers {
        let in_place = (file.starts_with("crates/")
            && (file.contains("/src/") || file.contains("/tests/")))
            || file.starts_with("benchmark/src/")
            || file.starts_with("examples/")
            || file.starts_with("tests/")
            || file == ".github/workflows/ci.yml";
        if !in_place || NOT_READERS.contains(&file) {
            problems.push(format!("{item}: {file} is not a reader"));
            continue;
        }
        match std::fs::read_to_string(root().join(file)) {
            Ok(text) if text.contains(ident) => {}
            Ok(_) => problems.push(format!("{item}: {file} does not contain `{ident}`")),
            Err(e) => problems.push(format!("{item}: {file}: {e}")),
        }
    }
    problems
}

/// The variant names of `EventKind`, read from its definition: every
/// line of the enum body indented four spaces that starts a variant.
fn declared_variants() -> BTreeSet<String> {
    let src = include_str!("../src/event.rs");
    let body = src
        .split_once("pub enum EventKind {\n")
        .and_then(|(_, rest)| rest.split_once("\n}\n"))
        .expect("EventKind definition")
        .0;
    body.lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|l| {
            l.split(|c: char| !c.is_ascii_alphanumeric())
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn variant_name(kind: &EventKind) -> String {
    let debug = format!("{kind:?}");
    debug
        .split(|c: char| !c.is_ascii_alphanumeric())
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn every_event_kind_has_a_reader() {
    let kinds = every_kind();
    let listed: BTreeSet<String> = kinds.iter().map(variant_name).collect();
    assert_eq!(listed.len(), kinds.len(), "every_kind lists a kind twice");
    assert_eq!(
        listed,
        declared_variants(),
        "every_kind() must hold one value of each EventKind variant"
    );
    let problems: Vec<String> = kinds
        .iter()
        .flat_map(|k| check_readers(k.name(), kind_readers(k)))
        .collect();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn every_counter_and_histogram_has_a_reader() {
    let table: BTreeSet<String> = STATS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(table.len(), STATS.len(), "the table lists an item twice");
    let names = stats_names();
    let missing: Vec<&String> = names.difference(&table).collect();
    let stale: Vec<&String> = table.difference(&names).collect();
    assert!(missing.is_empty(), "not catalogued: {missing:?}");
    assert!(stale.is_empty(), "catalogued but gone: {stale:?}");
    let problems: Vec<String> = STATS
        .iter()
        .flat_map(|(item, readers)| check_readers(item, readers))
        .collect();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
