//! Terminal tables for the live telemetry plane, rendered by
//! `worlds-top`.

use crate::wire::{NodeReport, SessionReport};
use worlds_obs::fmt_ns;

/// The full cluster view: a per-node table followed by the merged
/// per-site PI table. Plain text, one trailing newline.
pub fn render_cluster(reports: &[NodeReport]) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "== worlds cluster telemetry ({} node{}) ==\n",
        reports.len(),
        if reports.len() == 1 { "" } else { "s" }
    ));
    out.push_str(&format!(
        "{:>9}  {:>6}  {:>7}  {:>7}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>5}  hottest site\n",
        "node",
        "live",
        "frames",
        "backlog",
        "events/s",
        "blocks/s",
        "elims/s",
        "net/s",
        "rtt",
        "cpu%"
    ));
    for r in reports {
        let cpu = if r.cpu_util > 0.0 {
            format!("{:>5.1}", 100.0 * r.cpu_util)
        } else {
            format!("{:>5}", "-")
        };
        let hot = match r.hot_site() {
            Some((label, share)) => format!("{label} ({:.0}%)", 100.0 * share),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:>9}  {:>6}  {:>7}  {:>7}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9}  {cpu}  {hot}\n",
            node_name(r.node),
            r.live_worlds,
            r.frames_resident,
            r.elim_backlog,
            r.events_s,
            r.commits_s,
            r.elims_s,
            r.net_frames_s,
            fmt_ns(r.rtt_mean_ns as u64),
        ));
    }
    out.push_str(&render_sites(reports));
    out
}

/// The merged per-site PI table: `PI = Rμ/(1+Ro)` per call site per
/// node, the paper's §3.3 model estimated live. Empty string when no
/// node reported a labelled site.
pub fn render_sites(reports: &[NodeReport]) -> String {
    let mut rows: Vec<(u64, &crate::wire::SiteReport)> = reports
        .iter()
        .flat_map(|r| r.sites.iter().map(move |s| (r.node, s)))
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    rows.sort_by(|a, b| (a.1.label.as_str(), a.0).cmp(&(b.1.label.as_str(), b.0)));
    let mut out = String::with_capacity(512);
    out.push_str("-- per-site PI (PI = R\u{3bc}/(1+Ro), \u{a7}3.3) --\n");
    out.push_str(&format!(
        "{:<28}  {:>9}  {:>7}  {:>6}  {:>6}  {:>6}  {:>6}  alts\n",
        "site", "node", "commits", "R\u{3bc}", "Ro", "PI", "cpuR\u{3bc}"
    ));
    for (node, site) in rows {
        let alts = site
            .alts
            .iter()
            .map(|a| format!("a{}:{}@{}", a.alt, a.count, fmt_ns(a.mean_ns as u64)))
            .collect::<Vec<_>>()
            .join(" ");
        let mut label = site.label.clone();
        if label.len() > 28 {
            let mut cut = 27;
            while !label.is_char_boundary(cut) {
                cut -= 1;
            }
            label.truncate(cut);
            label.push('\u{2026}');
        }
        // A cpuRμ of 0 means "no profiler samples yet", not "no
        // dispersion" — render the absence, not a misleading number.
        let cpu_r_mu = if site.cpu_r_mu > 0.0 {
            format!("{:>6.2}", site.cpu_r_mu)
        } else {
            format!("{:>6}", "-")
        };
        out.push_str(&format!(
            "{label:<28}  {:>9}  {:>7}  {:>6.2}  {:>6.2}  {:>6.2}  {cpu_r_mu}  {alts}\n",
            node_name(node),
            site.commits,
            site.r_mu,
            site.r_o,
            site.pi,
        ));
    }
    out
}

/// The per-session table a worlds-server front door answers
/// `worlds-top --sessions` with: one row per admitted session, id
/// order, lineage shown as `parent → child`. Plain text, one trailing
/// newline.
pub fn render_sessions(reports: &[SessionReport]) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(&format!(
        "== worlds sessions ({} session{}) ==\n",
        reports.len(),
        if reports.len() == 1 { "" } else { "s" }
    ));
    if reports.is_empty() {
        return out;
    }
    out.push_str(&format!(
        "{:>5}  {:<24}  {:>6}  {:>6}  {:>7}  {:>9}  {:>9}  {:>7}  {:>7}  {:>6}  {:>6}\n",
        "sess",
        "name",
        "parent",
        "live",
        "frames",
        "vt spent",
        "vt quota",
        "spawns",
        "commits",
        "rej",
        "queued"
    ));
    let mut rows: Vec<&SessionReport> = reports.iter().collect();
    rows.sort_by_key(|r| r.session);
    for r in rows {
        let mut name = r.name.clone();
        if name.len() > 24 {
            let mut cut = 23;
            while !name.is_char_boundary(cut) {
                cut -= 1;
            }
            name.truncate(cut);
            name.push('\u{2026}');
        }
        let parent = if r.parent == 0 {
            "-".to_string()
        } else {
            r.parent.to_string()
        };
        let quota = if r.vt_budget_ns == 0 {
            format!("{:>9}", "\u{221e}")
        } else {
            format!("{:>9}", fmt_ns(r.vt_budget_ns))
        };
        out.push_str(&format!(
            "{:>5}  {name:<24}  {parent:>6}  {:>6}  {:>7}  {:>9}  {quota}  {:>7}  {:>7}  {:>6}  {:>6}\n",
            r.session,
            r.live_worlds,
            r.resident_frames,
            fmt_ns(r.vt_spent_ns),
            r.spawns,
            r.commits,
            r.rejected,
            r.queued,
        ));
    }
    out
}

/// The machine-readable session snapshot (`worlds-top --sessions
/// --json`): one JSON object, stable key order, one trailing newline.
pub fn render_sessions_json(reports: &[SessionReport]) -> String {
    let mut rows: Vec<&SessionReport> = reports.iter().collect();
    rows.sort_by_key(|r| r.session);
    let mut s = String::with_capacity(512);
    s.push_str("{\"sessions\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            concat!(
                "{{\"session\":{},\"name\":{:?},\"parent\":{},",
                "\"live_worlds\":{},\"resident_frames\":{},",
                "\"vt_spent_ns\":{},\"vt_budget_ns\":{},",
                "\"spawns\":{},\"commits\":{},\"rejected\":{},\"queued\":{}}}"
            ),
            r.session,
            r.name,
            r.parent,
            r.live_worlds,
            r.resident_frames,
            r.vt_spent_ns,
            r.vt_budget_ns,
            r.spawns,
            r.commits,
            r.rejected,
            r.queued,
        ));
    }
    s.push_str("]}\n");
    s
}

/// The machine-readable cluster snapshot (`worlds-top --json`): one
/// JSON object, one trailing newline, stable key order. Same content
/// as [`render_cluster`], for scripts and CI assertions instead of
/// eyes.
pub fn render_cluster_json(reports: &[NodeReport]) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\"nodes\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let (hot_label, hot_share) = match r.hot_site() {
            Some((label, share)) => (format!("{label:?}"), format!("{share:.4}")),
            None => ("null".into(), "null".into()),
        };
        s.push_str(&format!(
            concat!(
                "{{\"node\":{},\"window_ns\":{},\"wall_ns\":{},",
                "\"live_worlds\":{},\"frames_resident\":{},\"elim_backlog\":{},",
                "\"stalls\":{},\"events_s\":{:.1},\"spawns_s\":{:.1},",
                "\"commits_s\":{:.1},\"elims_s\":{:.1},\"faults_s\":{:.1},",
                "\"net_frames_s\":{:.1},\"rtt_mean_ns\":{:.0},",
                "\"cpu_util\":{:.4},\"hot_site\":{},\"hot_site_share\":{},",
                "\"sites\":["
            ),
            r.node,
            r.window_ns,
            r.wall_ns,
            r.live_worlds,
            r.frames_resident,
            r.elim_backlog,
            r.stalls,
            r.events_s,
            r.spawns_s,
            r.commits_s,
            r.elims_s,
            r.faults_s,
            r.net_frames_s,
            r.rtt_mean_ns,
            r.cpu_util,
            hot_label,
            hot_share,
        ));
        for (j, site) in r.sites.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"site\":{},\"label\":{:?},\"commits\":{},\"r_mu\":{:.3},\"r_o\":{:.3},\"pi\":{:.3},\"cpu_r_mu\":{:.3},\"alts\":[",
                site.site, site.label, site.commits, site.r_mu, site.r_o, site.pi, site.cpu_r_mu
            ));
            for (k, alt) in site.alts.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"alt\":{},\"count\":{},\"mean_ns\":{:.0},\"cpu_ns\":{:.0}}}",
                    alt.alt, alt.count, alt.mean_ns, alt.cpu_ns
                ));
            }
            s.push_str("]}");
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");
    s
}

fn node_name(node: u64) -> String {
    if node == crate::COLLECTOR_NODE_ID {
        "collector".into()
    } else {
        node.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{AltReport, SiteReport};

    #[test]
    fn renders_nodes_and_sites() {
        let reports = vec![
            NodeReport {
                node: 0,
                live_worlds: 3,
                events_s: 100.0,
                sites: vec![SiteReport {
                    site: 1,
                    label: "rootfinder/solve".into(),
                    commits: 9,
                    r_mu: 1.8,
                    r_o: 0.05,
                    pi: 1.71,
                    cpu_r_mu: 0.0,
                    alts: vec![AltReport {
                        alt: 0,
                        count: 12,
                        mean_ns: 1500.0,
                        cpu_ns: 0.0,
                    }],
                }],
                ..NodeReport::default()
            },
            NodeReport {
                node: 1,
                ..NodeReport::default()
            },
        ];
        let text = render_cluster(&reports);
        assert!(text.contains("2 nodes"));
        assert!(text.contains("rootfinder/solve"));
        assert!(text.contains("1.71"));
        assert!(text.contains("a0:12@1.50us"));
        let one_node = render_cluster(&reports[1..]);
        assert!(one_node.contains("1 node"));
        assert!(!one_node.contains("per-site"), "no sites, no site table");
    }

    #[test]
    fn renders_cpu_columns_when_profiled() {
        let mut r = NodeReport {
            node: 0,
            cpu_util: 0.625,
            sites: vec![SiteReport {
                site: 1,
                label: "rootfinder/solve".into(),
                commits: 9,
                r_mu: 1.8,
                r_o: 0.05,
                pi: 1.71,
                cpu_r_mu: 1.40,
                alts: vec![AltReport {
                    alt: 0,
                    count: 12,
                    mean_ns: 1500.0,
                    cpu_ns: 9000.0,
                }],
            }],
            ..NodeReport::default()
        };
        let text = render_cluster(std::slice::from_ref(&r));
        assert!(text.contains("cpu%"), "{text}");
        assert!(text.contains("62.5"), "{text}");
        assert!(text.contains("rootfinder/solve (100%)"), "{text}");
        assert!(text.contains("1.40"), "cpuR\u{3bc} column: {text}");
        // Without samples both render as absent, not as zeros.
        r.cpu_util = 0.0;
        r.sites[0].cpu_r_mu = 0.0;
        r.sites[0].alts[0].cpu_ns = 0.0;
        let text = render_cluster(std::slice::from_ref(&r));
        assert!(!text.contains("(100%)"), "{text}");
        assert!(!text.contains("0.0  rootfinder"), "{text}");
    }

    #[test]
    fn renders_session_table_in_id_order() {
        let reports = vec![
            SessionReport {
                session: 2,
                name: "tenant-b".into(),
                parent: 1,
                live_worlds: 4,
                resident_frames: 12,
                vt_spent_ns: 1_500_000,
                vt_budget_ns: 0,
                spawns: 8,
                commits: 1,
                rejected: 3,
                queued: 2,
            },
            SessionReport {
                session: 1,
                name: "tenant-a".into(),
                vt_budget_ns: 2_000_000_000,
                ..SessionReport::default()
            },
        ];
        let text = render_sessions(&reports);
        assert!(text.contains("2 sessions"), "{text}");
        let a = text.find("tenant-a").unwrap();
        let b = text.find("tenant-b").unwrap();
        assert!(a < b, "rows sorted by session id: {text}");
        assert!(
            text.contains('\u{221e}'),
            "0 budget renders unlimited: {text}"
        );
        assert!(text.contains("2.00s"), "budget rendered via fmt_ns: {text}");
        assert!(render_sessions(&[]).contains("0 sessions"));

        let json = render_sessions_json(&reports);
        worlds_obs::validate_json(&json).expect("session snapshot is valid JSON");
        for key in [
            "\"session\":1",
            "\"name\":\"tenant-b\"",
            "\"parent\":1",
            "\"rejected\":3",
            "\"queued\":2",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        worlds_obs::validate_json(&render_sessions_json(&[])).unwrap();
    }

    #[test]
    fn json_snapshot_is_valid_and_complete() {
        let reports = vec![
            NodeReport {
                node: 0,
                live_worlds: 3,
                stalls: 1,
                cpu_util: 0.5,
                sites: vec![SiteReport {
                    site: 1,
                    label: "rootfinder/solve".into(),
                    commits: 9,
                    r_mu: 1.8,
                    r_o: 0.05,
                    pi: 1.71,
                    cpu_r_mu: 1.2,
                    alts: vec![AltReport {
                        alt: 0,
                        count: 12,
                        mean_ns: 1500.0,
                        cpu_ns: 8000.0,
                    }],
                }],
                ..NodeReport::default()
            },
            NodeReport {
                node: 1,
                ..NodeReport::default()
            },
        ];
        let json = render_cluster_json(&reports);
        worlds_obs::validate_json(&json).expect("snapshot is valid JSON");
        for key in [
            "\"nodes\":[",
            "\"live_worlds\":3",
            "\"stalls\":1",
            "\"cpu_util\":0.5000",
            "\"hot_site\":\"rootfinder/solve\"",
            "\"hot_site_share\":1.0000",
            "\"cpu_r_mu\":1.200",
            "\"cpu_ns\":8000",
            "\"hot_site\":null",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        // Empty table is still a valid, parseable document.
        worlds_obs::validate_json(&render_cluster_json(&[])).unwrap();
    }
}
