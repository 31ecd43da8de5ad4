//! The metric and workload tables. `BENCHMARK.json` at the repository root
//! is this file rendered (`--manifest`), and a unit test keeps the two in
//! step, so a name exists in exactly one place.

use std::collections::BTreeMap;

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds one run measures (`run_seconds` of the manifest; the default of
/// `--seconds`).
pub const RUN_SECONDS: u64 = 18;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "spec_inproc",
        why: "3-alternative blocks on a 20-cell world: core handshake and exec dispatch/reap do the work, pagestore almost none",
    },
    WorkloadInfo {
        name: "store_fork",
        why: "fork 4, write 8 pages each, adopt 1, drop 3 on a 2048-page root: the map-sized calls (fork/adopt/drop) are the round",
    },
    WorkloadInfo {
        name: "store_write",
        why: "same root, 1 fork then 819 CoW faults, 819 in-place writes, 2048 reads: fault/lookup paths dominate, map-sized calls do not",
    },
    WorkloadInfo {
        name: "session_tcp",
        why: "2 clients cycle open/3 spawns/commit/close over loopback with no guest work: the front door's own small-frame overhead",
    },
    WorkloadInfo {
        name: "dist_block_tcp",
        why: "distributed 3-alt blocks over a 1 MiB origin with delta rfork, full image every 8th: large-frame net, checkpoint/restore, cache churn",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_us_p50", "us", Better::Lower, 0.25),
    e2e("op_us_p95", "us", Better::Lower, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("rss_peak_mib", "MiB", Better::Lower, 0.20),
];

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer prefix + suffix. `*_ns` and `*_mb_s` come from the ladder's direct
/// calls, `*_per_op`, ratios and plain counts from public counters, `share`
/// from spans and the ladder together (README, "Shares").
pub const PER_LAYER: [PerLayer; 85] = [
    lo("pagestore.fork_ns", "ns"),
    lo("pagestore.cow_write_ns", "ns"),
    lo("pagestore.inplace_write_ns", "ns"),
    lo("pagestore.read_ns", "ns"),
    lo("pagestore.adopt_ns", "ns"),
    lo("pagestore.drop_ns_per_world", "ns"),
    lo("pagestore.adopt_clean_ns", "ns"),
    lo("pagestore.drop_clean_ns_per_world", "ns"),
    lo("pagestore.checkpoint_ns_per_page", "ns"),
    lo("pagestore.restore_ns_per_page", "ns"),
    lo("pagestore.delta_ns_per_dirty_page", "ns"),
    lo("pagestore.forks_per_op", "count"),
    lo("pagestore.cow_faults_per_op", "count"),
    lo("pagestore.bytes_copied_per_op", "B"),
    lo("pagestore.zero_fills_per_op", "count"),
    lo("pagestore.reads_per_op", "count"),
    lo("pagestore.writes_per_op", "count"),
    hi("pagestore.writes_solo_ratio", "ratio"),
    lo("pagestore.frames_freed_per_op", "count"),
    hi("pagestore.frames_recycled_ratio", "ratio"),
    lo("pagestore.recycler_locks_per_op", "count"),
    hi("pagestore.dedupe_hit_ratio", "ratio"),
    lo("pagestore.hash_invalidations_per_op", "count"),
    lo("pagestore.live_frames_end", "count"),
    lo("pagestore.map_calls_share", "ratio"),
    lo("pagestore.share", "ratio"),
    lo("exec.scope3_ns", "ns"),
    lo("exec.fair_submit_ns", "ns"),
    lo("exec.reap_ns_per_world", "ns"),
    lo("exec.tasks_run_per_op", "count"),
    lo("exec.tasks_stolen_ratio", "ratio"),
    lo("exec.tasks_injected_per_op", "count"),
    lo("exec.fallback_threads", "count"),
    hi("exec.reaper_worlds_per_batch", "count"),
    lo("exec.fair_rejected", "count"),
    lo("exec.share", "ratio"),
    lo("core.run_ns", "ns"),
    lo("core.self_ns", "ns"),
    hi("core.useful_alt_ratio", "ratio"),
    lo("core.alts_eliminated_per_op", "count"),
    lo("core.pages_dirtied_per_alt", "count"),
    lo("core.share", "ratio"),
    lo("net.ping_rtt_ns", "ns"),
    lo("net.encode_small_ns", "ns"),
    lo("net.decode_small_ns", "ns"),
    hi("net.encode_large_mb_s", "MB/s"),
    hi("net.decode_large_mb_s", "MB/s"),
    hi("net.crc_mb_s", "MB/s"),
    lo("net.frames_sent_per_op", "count"),
    lo("net.wire_bytes_sent_per_op", "B"),
    lo("net.wire_bytes_per_op", "B"),
    lo("net.retries", "count"),
    lo("net.timeouts", "count"),
    lo("net.nacks", "count"),
    lo("net.share", "ratio"),
    lo("remote.rfork_full_ns", "ns"),
    lo("remote.rfork_delta_ns", "ns"),
    lo("remote.commit_back_ns", "ns"),
    lo("remote.discard_ns", "ns"),
    lo("remote.rfork_full_inproc_ns", "ns"),
    lo("remote.rfork_delta_inproc_ns", "ns"),
    lo("remote.wire_factor_full", "ratio"),
    lo("remote.wire_factor_delta", "ratio"),
    lo("remote.full_ships_per_op", "count"),
    lo("remote.bytes_sent_per_op", "B"),
    lo("remote.delta_over_full", "ratio"),
    lo("remote.cache_evictions", "count"),
    lo("remote.cache_resident_bytes", "B"),
    lo("remote.share", "ratio"),
    lo("server.open_ns", "ns"),
    lo("server.spawn_ns", "ns"),
    lo("server.commit_ns", "ns"),
    lo("server.close_ns", "ns"),
    lo("server.rpc_open_ns", "ns"),
    lo("server.rpc_spawn_ns", "ns"),
    lo("server.rpc_commit_ns", "ns"),
    lo("server.rpc_close_ns", "ns"),
    hi("server.committed_per_op", "count"),
    lo("server.rejected_overloaded", "count"),
    lo("server.rejected_limit", "count"),
    lo("server.client_imbalance", "ratio"),
    lo("server.share", "ratio"),
    lo("harness.share", "ratio"),
    lo("trace.overhead_pct", "%"),
    lo("trace.probe_excess_pct", "%"),
];

/// Exact counters `--aa` requires to be identical between two sets. The
/// second list is asserted on the two direct-pagestore workloads only:
/// elsewhere reaper batching decides which side frees a frame first.
pub const EXACT_EVERYWHERE: [&str; 1] = ["net.wire_bytes_per_op"];
pub const EXACT_ON_STORE_WORKLOADS: [&str; 6] = [
    "pagestore.forks_per_op",
    "pagestore.cow_faults_per_op",
    "pagestore.bytes_copied_per_op",
    "pagestore.zero_fills_per_op",
    "pagestore.reads_per_op",
    "pagestore.writes_per_op",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// One value per per-layer metric, 0 until a workload sets it: a layer the
/// workload never enters reads 0.
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn zeroed() -> LayerValues {
        LayerValues(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    /// In table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        PER_LAYER.iter().map(|m| (m.name, self.0[m.name]))
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", strings(&COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(name_ok(n), "bad name {n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound && setup.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && COMMAND.len() <= 32);
        assert!((1..=60).contains(&RUN_SECONDS));
        for exact in EXACT_EVERYWHERE.iter().chain(&EXACT_ON_STORE_WORKLOADS) {
            assert!(PER_LAYER.iter().any(|m| m.name == *exact));
        }
    }

    #[test]
    fn committed_manifest_is_the_rendered_tables() {
        let rendered = manifest_json();
        let parsed = json::parse(&rendered).expect("manifest renders as JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(rendered.len() < 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed, rendered,
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn layer_values_start_at_zero_and_swallow_nan() {
        let mut v = LayerValues::zeroed();
        assert_eq!(v.iter().count(), PER_LAYER.len());
        v.set("core.share", 0.25);
        v.set("net.share", f64::NAN);
        assert_eq!(v.get("core.share"), 0.25);
        assert_eq!(v.get("net.share"), 0.0);
        assert_eq!(unit_of("net.crc_mb_s"), "MB/s");
        assert_eq!(unit_of("ops_per_s"), "1/s");
    }
}
