//! Payload schema for `Request::Telemetry` frames.
//!
//! worlds-net treats telemetry payloads as opaque bytes; this module
//! owns them. Three request payloads and two reply payloads, all
//! little-endian, length-prefixed where variable:
//!
//! ```text
//! push     := 0x00 node_report         (replied to with Ack)
//! query    := 0x01                     (replied to with Telemetry)
//! sessions := 0x02                     (replied to with Telemetry)
//! reply    := u32 n, n × node_report
//! sessions_reply := u32 n, n × session_report
//!
//! session_report :=
//!   u64 session   str name   u64 parent (0 = no parent)
//!   u64 live_worlds   u64 resident_frames
//!   u64 vt_spent_ns   u64 vt_budget_ns (0 = unlimited)
//!   u64 spawns   u64 commits   u64 rejected   u64 queued
//!
//! node_report :=
//!   u64 node            u64 window_ns      u64 wall_ns
//!   u64 live_worlds     u64 frames_resident u64 elim_backlog
//!   u64 stalls
//!   f64 events_s  f64 spawns_s  f64 commits_s  f64 elims_s
//!   f64 faults_s  f64 net_frames_s  f64 rtt_mean_ns
//!   f64 cpu_util
//!   u32 n_sites, n_sites × site_report
//!
//! site_report :=
//!   u64 site   str label   u64 commits
//!   f64 r_mu   f64 r_o     f64 pi   f64 cpu_r_mu
//!   u32 n_alts, n_alts × (u64 alt, u64 count, f64 mean_ns, f64 cpu_ns)
//!
//! str := u32 len, len × u8 (UTF-8)
//! f64 := u64 (IEEE-754 bits)
//! ```
//!
//! Reports carry *labels*, not just interned site ids: ids are dense
//! per process, so the collector — a different process — can only
//! render names the exporters ship. Unknown lead bytes and truncated
//! buffers decode to errors, never panics: the bytes crossed a
//! network.

use crate::pi::SiteSnapshot;
use crate::rollup::{Gauges, Rates};
use worlds_pagestore::Cursor;

/// Lead byte of a push payload.
pub const MSG_PUSH: u8 = 0x00;
/// Lead byte of a query payload.
pub const MSG_QUERY: u8 = 0x01;
/// Lead byte of a session-table query payload (answered by a
/// worlds-server front door; plain nodes and collectors refuse it).
pub const MSG_SESSIONS: u8 = 0x02;
/// Longest label shipped per site; longer ones are truncated at a
/// UTF-8 boundary.
pub const MAX_LABEL: usize = 128;

/// One decoded telemetry request payload.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryMsg {
    /// A node pushing its current rollup snapshot.
    Push(NodeReport),
    /// Someone asking for the table.
    Query,
    /// Someone asking a front door for its per-session table.
    SessionsQuery,
}

/// One session's live accounting row as it crosses the wire, built by
/// a worlds-server front door from its `SessionManager`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionReport {
    /// Session id on the serving node (ids start at 1).
    pub session: u64,
    /// The name the tenant opened the session under.
    pub name: String,
    /// Parent session id for lineage forks; 0 for top-level sessions.
    pub parent: u64,
    /// Speculative worlds currently alive on the session's behalf.
    pub live_worlds: u64,
    /// Frames resident across the session's root and spec worlds.
    pub resident_frames: u64,
    /// Declared virtual time spent so far, ns.
    pub vt_spent_ns: u64,
    /// Virtual time budget, ns; 0 = unlimited.
    pub vt_budget_ns: u64,
    /// Lifetime spawns admitted.
    pub spawns: u64,
    /// Lifetime commits.
    pub commits: u64,
    /// Lifetime admissions refused (limit or overload).
    pub rejected: u64,
    /// Spawns queued in the fair scheduler right now.
    pub queued: u64,
}

/// One node's rollup snapshot as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeReport {
    /// Cluster node id.
    pub node: u64,
    /// Span of event time the rates cover.
    pub window_ns: u64,
    /// The node's event time when the report was built.
    pub wall_ns: u64,
    /// Worlds spawned and not yet resolved.
    pub live_worlds: u64,
    /// Frames resident in the node's page store.
    pub frames_resident: u64,
    /// Async-elimination backlog.
    pub elim_backlog: u64,
    /// Lifetime watchdog stall events on the node.
    pub stalls: u64,
    /// All events per second.
    pub events_s: f64,
    /// Worlds spawned per second.
    pub spawns_s: f64,
    /// Blocks committed per second.
    pub commits_s: f64,
    /// Losers eliminated per second.
    pub elims_s: f64,
    /// Page faults per second.
    pub faults_s: f64,
    /// Wire frames per second.
    pub net_frames_s: f64,
    /// Mean RTT in the window, ns.
    pub rtt_mean_ns: f64,
    /// Fraction of profiler sampler ticks on-CPU in the window (0..=1,
    /// 0 without a sampler).
    pub cpu_util: f64,
    /// The node's live PI table.
    pub sites: Vec<SiteReport>,
}

impl NodeReport {
    /// Assemble a report from hub snapshots.
    pub fn from_snapshots(
        node: u64,
        wall_ns: u64,
        rates: &Rates,
        gauges: &Gauges,
        stalls: u64,
        sites: &[SiteSnapshot],
    ) -> NodeReport {
        NodeReport {
            node,
            window_ns: rates.window_ns,
            wall_ns,
            live_worlds: gauges.live_worlds,
            frames_resident: gauges.frames_resident,
            elim_backlog: gauges.elim_backlog,
            stalls,
            events_s: rates.events_s,
            spawns_s: rates.spawns_s,
            commits_s: rates.commits_s,
            elims_s: rates.elims_s,
            faults_s: rates.faults_s,
            net_frames_s: rates.net_frames_s,
            rtt_mean_ns: rates.rtt_mean_ns,
            cpu_util: rates.cpu_util,
            sites: sites.iter().map(SiteReport::from_snapshot).collect(),
        }
    }

    /// The site burning the most estimated on-CPU time, with its share
    /// (0..=1) of all CPU attributed on this node. Derived from the
    /// shipped per-alternative `cpu_ns`, so any viewer holding a report
    /// can compute it; `None` until profiler flushes arrive.
    pub fn hot_site(&self) -> Option<(&str, f64)> {
        let site_cpu = |s: &SiteReport| s.alts.iter().map(|a| a.cpu_ns).sum::<f64>();
        let total: f64 = self.sites.iter().map(site_cpu).sum();
        if total <= 0.0 {
            return None;
        }
        self.sites
            .iter()
            .max_by(|a, b| site_cpu(a).total_cmp(&site_cpu(b)))
            .map(|s| (s.label.as_str(), site_cpu(s) / total))
    }
}

/// One PI-table row as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SiteReport {
    /// Interned site id *on the reporting node*.
    pub site: u64,
    /// The label the site was registered under.
    pub label: String,
    /// Lifetime commits at the site.
    pub commits: u64,
    /// Measured dispersion.
    pub r_mu: f64,
    /// Measured relative overhead.
    pub r_o: f64,
    /// Predicted improvement.
    pub pi: f64,
    /// On-CPU dispersion (0 without samples).
    pub cpu_r_mu: f64,
    /// Per-alternative `(alt, decayed count, mean ns, cpu ns)`.
    pub alts: Vec<AltReport>,
}

impl SiteReport {
    fn from_snapshot(s: &SiteSnapshot) -> SiteReport {
        let mut label = s.label.clone();
        if label.len() > MAX_LABEL {
            let mut cut = MAX_LABEL;
            while !label.is_char_boundary(cut) {
                cut -= 1;
            }
            label.truncate(cut);
        }
        SiteReport {
            site: s.site,
            label,
            commits: s.commits,
            r_mu: s.r_mu,
            r_o: s.r_o,
            pi: s.pi,
            cpu_r_mu: s.cpu_r_mu,
            alts: s
                .alts
                .iter()
                .map(|a| AltReport {
                    alt: a.alt,
                    count: a.count,
                    mean_ns: a.mean_ns,
                    cpu_ns: a.cpu_ns,
                })
                .collect(),
        }
    }
}

/// One alternative's estimate as it crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AltReport {
    /// Alternative index.
    pub alt: u64,
    /// Decayed sample count.
    pub count: u64,
    /// Mean guard duration, ns.
    pub mean_ns: f64,
    /// Lifetime estimated on-CPU ns (0 without a sampler).
    pub cpu_ns: f64,
}

/// Encode a push payload.
pub fn encode_push(report: &NodeReport) -> Vec<u8> {
    let mut buf = Vec::with_capacity(160);
    buf.push(MSG_PUSH);
    put_report(&mut buf, report);
    buf
}

/// Encode a query payload.
pub fn encode_query() -> Vec<u8> {
    vec![MSG_QUERY]
}

/// Encode a session-table query payload.
pub fn encode_sessions_query() -> Vec<u8> {
    vec![MSG_SESSIONS]
}

/// Encode a front door's session-table reply.
pub fn encode_session_table(reports: &[SessionReport]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + reports.len() * 96);
    put_u32(&mut buf, reports.len() as u32);
    for r in reports {
        put_u64(&mut buf, r.session);
        put_str(&mut buf, &r.name);
        for v in [
            r.parent,
            r.live_worlds,
            r.resident_frames,
            r.vt_spent_ns,
            r.vt_budget_ns,
            r.spawns,
            r.commits,
            r.rejected,
            r.queued,
        ] {
            put_u64(&mut buf, v);
        }
    }
    buf
}

/// Decode a session-table reply.
pub fn decode_session_table(bytes: &[u8]) -> Result<Vec<SessionReport>, String> {
    let mut cur = Cursor::new(bytes);
    let n = cur.u32()? as usize;
    if n > 1 << 20 {
        return Err(format!("implausible table of {n} sessions"));
    }
    let mut reports = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        reports.push(SessionReport {
            session: cur.u64()?,
            name: get_str(&mut cur)?,
            parent: cur.u64()?,
            live_worlds: cur.u64()?,
            resident_frames: cur.u64()?,
            vt_spent_ns: cur.u64()?,
            vt_budget_ns: cur.u64()?,
            spawns: cur.u64()?,
            commits: cur.u64()?,
            rejected: cur.u64()?,
            queued: cur.u64()?,
        });
    }
    cur.finish()?;
    Ok(reports)
}

/// Encode the collector's reply table.
pub fn encode_table(reports: &[NodeReport]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + reports.len() * 160);
    put_u32(&mut buf, reports.len() as u32);
    for report in reports {
        put_report(&mut buf, report);
    }
    buf
}

/// Decode a request payload (push or query).
pub fn decode_msg(bytes: &[u8]) -> Result<TelemetryMsg, String> {
    let mut cur = Cursor::new(bytes);
    let msg = match cur.u8()? {
        MSG_PUSH => TelemetryMsg::Push(get_report(&mut cur)?),
        MSG_QUERY => TelemetryMsg::Query,
        MSG_SESSIONS => TelemetryMsg::SessionsQuery,
        other => return Err(format!("unknown telemetry message 0x{other:02x}")),
    };
    cur.finish()?;
    Ok(msg)
}

/// Decode a reply table.
pub fn decode_table(bytes: &[u8]) -> Result<Vec<NodeReport>, String> {
    let mut cur = Cursor::new(bytes);
    let n = cur.u32()? as usize;
    if n > 4096 {
        return Err(format!("implausible table of {n} nodes"));
    }
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        reports.push(get_report(&mut cur)?);
    }
    cur.finish()?;
    Ok(reports)
}

fn put_report(buf: &mut Vec<u8>, r: &NodeReport) {
    for v in [
        r.node,
        r.window_ns,
        r.wall_ns,
        r.live_worlds,
        r.frames_resident,
        r.elim_backlog,
        r.stalls,
    ] {
        put_u64(buf, v);
    }
    for v in [
        r.events_s,
        r.spawns_s,
        r.commits_s,
        r.elims_s,
        r.faults_s,
        r.net_frames_s,
        r.rtt_mean_ns,
        r.cpu_util,
    ] {
        put_f64(buf, v);
    }
    put_u32(buf, r.sites.len() as u32);
    for site in &r.sites {
        put_u64(buf, site.site);
        put_str(buf, &site.label);
        put_u64(buf, site.commits);
        put_f64(buf, site.r_mu);
        put_f64(buf, site.r_o);
        put_f64(buf, site.pi);
        put_f64(buf, site.cpu_r_mu);
        put_u32(buf, site.alts.len() as u32);
        for alt in &site.alts {
            put_u64(buf, alt.alt);
            put_u64(buf, alt.count);
            put_f64(buf, alt.mean_ns);
            put_f64(buf, alt.cpu_ns);
        }
    }
}

fn get_report(cur: &mut Cursor<'_>) -> Result<NodeReport, String> {
    let mut r = NodeReport {
        node: cur.u64()?,
        window_ns: cur.u64()?,
        wall_ns: cur.u64()?,
        live_worlds: cur.u64()?,
        frames_resident: cur.u64()?,
        elim_backlog: cur.u64()?,
        stalls: cur.u64()?,
        events_s: cur.f64()?,
        spawns_s: cur.f64()?,
        commits_s: cur.f64()?,
        elims_s: cur.f64()?,
        faults_s: cur.f64()?,
        net_frames_s: cur.f64()?,
        rtt_mean_ns: cur.f64()?,
        cpu_util: cur.f64()?,
        sites: Vec::new(),
    };
    let n_sites = cur.u32()? as usize;
    if n_sites > crate::MAX_SITES * 64 {
        return Err(format!("implausible site table of {n_sites}"));
    }
    for _ in 0..n_sites {
        let mut site = SiteReport {
            site: cur.u64()?,
            label: get_str(cur)?,
            commits: cur.u64()?,
            r_mu: cur.f64()?,
            r_o: cur.f64()?,
            pi: cur.f64()?,
            cpu_r_mu: cur.f64()?,
            alts: Vec::new(),
        };
        let n_alts = cur.u32()? as usize;
        if n_alts > crate::MAX_ALTS * 64 {
            return Err(format!("implausible alt table of {n_alts}"));
        }
        for _ in 0..n_alts {
            site.alts.push(AltReport {
                alt: cur.u64()?,
                count: cur.u64()?,
                mean_ns: cur.f64()?,
                cpu_ns: cur.f64()?,
            });
        }
        r.sites.push(site);
    }
    Ok(r)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A `str` field: its length is the sender's claim, so bound it before
/// anything is copied.
fn get_str(cur: &mut Cursor<'_>) -> Result<String, String> {
    let len = cur.u32()? as usize;
    if len > MAX_LABEL * 4 {
        return Err(format!("implausible label of {len} bytes"));
    }
    String::from_utf8(cur.take(len)?.to_vec()).map_err(|e| format!("label not UTF-8: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(node: u64) -> NodeReport {
        NodeReport {
            node,
            window_ns: 2_000_000_000,
            wall_ns: 5_000_000_000,
            live_worlds: 3,
            frames_resident: 17,
            elim_backlog: 1,
            stalls: 2,
            events_s: 1234.5,
            spawns_s: 12.25,
            commits_s: 4.0,
            elims_s: 8.0,
            faults_s: 100.0,
            net_frames_s: 20.5,
            rtt_mean_ns: 85_000.0,
            cpu_util: 0.625,
            sites: vec![SiteReport {
                site: 2,
                label: "rootfinder/solve".into(),
                commits: 42,
                r_mu: 1.8,
                r_o: 0.05,
                pi: 1.71,
                cpu_r_mu: 1.4,
                alts: vec![
                    AltReport {
                        alt: 0,
                        count: 40,
                        mean_ns: 1000.0,
                        cpu_ns: 900_000.0,
                    },
                    AltReport {
                        alt: 1,
                        count: 40,
                        mean_ns: 2600.0,
                        cpu_ns: 2_100_000.0,
                    },
                ],
            }],
        }
    }

    #[test]
    fn push_round_trips() {
        let report = sample_report(7);
        let bytes = encode_push(&report);
        assert_eq!(decode_msg(&bytes), Ok(TelemetryMsg::Push(report)));
    }

    #[test]
    fn query_round_trips() {
        assert_eq!(decode_msg(&encode_query()), Ok(TelemetryMsg::Query));
    }

    #[test]
    fn table_round_trips() {
        let table = vec![sample_report(0), sample_report(1), NodeReport::default()];
        let bytes = encode_table(&table);
        assert_eq!(decode_table(&bytes), Ok(table));
    }

    #[test]
    fn hot_site_is_derived_from_shipped_cpu() {
        let mut report = sample_report(7);
        let (label, share) = report.hot_site().expect("report carries cpu");
        assert_eq!(label, "rootfinder/solve");
        assert!((share - 1.0).abs() < 1e-9, "only site gets all CPU");
        // A pre-prof report (all cpu_ns zero) has no hot site.
        for site in &mut report.sites {
            for alt in &mut site.alts {
                alt.cpu_ns = 0.0;
            }
        }
        assert_eq!(report.hot_site(), None);
    }

    #[test]
    fn session_table_round_trips() {
        let table = vec![
            SessionReport {
                session: 1,
                name: "tenant-a".into(),
                parent: 0,
                live_worlds: 4,
                resident_frames: 12,
                vt_spent_ns: 5_000_000,
                vt_budget_ns: 1_000_000_000,
                spawns: 9,
                commits: 2,
                rejected: 1,
                queued: 3,
            },
            SessionReport {
                session: 2,
                name: "tenant-a/child".into(),
                parent: 1,
                ..SessionReport::default()
            },
            SessionReport::default(),
        ];
        let bytes = encode_session_table(&table);
        assert_eq!(decode_session_table(&bytes), Ok(table.clone()));
        for cut in 0..bytes.len() {
            assert!(decode_session_table(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(
            decode_msg(&encode_sessions_query()),
            Ok(TelemetryMsg::SessionsQuery)
        );
        let mut trailing = encode_sessions_query();
        trailing.push(0);
        assert!(decode_msg(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn truncation_and_garbage_are_errors_not_panics() {
        let bytes = encode_push(&sample_report(7));
        for cut in 0..bytes.len() {
            assert!(decode_msg(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_msg(&[0x77]).is_err(), "unknown lead byte");
        assert!(decode_table(&[1, 2, 3]).is_err(), "short table");
        let mut trailing = encode_query();
        trailing.push(0);
        assert!(decode_msg(&trailing).is_err(), "trailing bytes");
    }
}
