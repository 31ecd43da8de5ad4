//! The flight recorder: an always-on bounded ring of recent events.
//!
//! Post-mortems usually start after the interesting part: the JSONL
//! sink nobody enabled, the panic message with no context. The flight
//! recorder keeps the last N events (default 4096) in a fixed ring at
//! all times, cheap enough to leave on, and dumps them — oldest first,
//! one JSON object per line, `Meta` provenance stamped at the head —
//! when something goes wrong:
//!
//! * [`install_panic_dump`] chains onto the panic hook;
//! * [`install_sigusr1_dump`] (unix) dumps on `SIGUSR1`, so a wedged
//!   process can be interrogated with `kill -USR1` without dying;
//! * [`TelemetryHub::dump_flight`](crate::TelemetryHub::dump_flight)
//!   dumps on demand.
//!
//! A dump is a plain event capture: `worlds-report <dump>` replays it
//! like any other JSONL file. Alongside the events, `dump` writes a
//! `<path>.rollups.json` sidecar with the hub's windowed rates and PI
//! table at dump time — the "what was it doing" to the ring's "what
//! happened".
//!
//! The ring is a vector of slot mutexes plus one atomic cursor.
//! Writers `fetch_add` the cursor and overwrite their slot; each lock
//! is uncontended unless two writers collide on the same slot a full
//! lap apart. Readers walk the last `capacity` indices, so a dump
//! taken while writers are active can miss or double-count the events
//! in flight at the boundary — the usual snapshot contract.

use crate::TelemetryHub;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use worlds_obs::{env, Event, EventKind};

/// The directory flight dumps land in: `WORLDS_FLIGHT_DIR` when set
/// (created on demand), the process working directory otherwise. An
/// uncreatable override falls back to the working directory — a dump
/// that lands somewhere beats one that lands nowhere.
pub fn flight_dir() -> PathBuf {
    let Some(dir) = env::path(env::FLIGHT_DIR) else {
        return PathBuf::from(".");
    };
    match std::fs::create_dir_all(&dir) {
        Ok(()) => dir,
        Err(e) => {
            eprintln!(
                "worlds-telemetry: cannot create {}={}: {e}",
                env::FLIGHT_DIR,
                dir.display()
            );
            PathBuf::from(".")
        }
    }
}

/// Resolve a dump file name against [`flight_dir`]. Absolute paths are
/// honoured as-is; relative ones land in the directory.
pub fn flight_path(name: impl AsRef<Path>) -> PathBuf {
    let name = name.as_ref();
    if name.is_absolute() {
        name.to_path_buf()
    } else {
        flight_dir().join(name)
    }
}

/// The bounded event ring. Usually owned by a
/// [`TelemetryHub`](crate::TelemetryHub); standalone use is fine too.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Event>>>,
    /// Total events ever recorded; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (≥ what the ring still holds).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Relaxed)
    }

    /// Record one event, evicting the oldest when full.
    #[inline]
    pub fn record_event(&self, ev: &Event) {
        let idx = self.cursor.fetch_add(1, Relaxed) as usize % self.slots.len();
        *self.slots[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(ev.clone());
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let cur = self.cursor.load(Relaxed);
        let start = cur.saturating_sub(self.slots.len() as u64);
        (start..cur)
            .filter_map(|i| {
                self.slots[i as usize % self.slots.len()]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone()
            })
            .collect()
    }

    /// Write the retained events as JSONL to `w`, headed by a `Meta`
    /// provenance line. Returns the number of event lines written
    /// (Meta included).
    pub fn dump_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        let meta = Event::new(
            EventKind::Meta {
                effective_cores: worlds_obs::effective_cores(),
            },
            0,
            None,
            0,
        );
        let mut lines = 1;
        writeln!(w, "{}", meta.to_json())?;
        let events = self.events();
        // Site ids are process-local, and the ring has usually aged out
        // the stream's original site_label lines — re-describe the
        // sites the retained events mention, so dumps stay renderable
        // in any process.
        let mut sites: Vec<u64> = events.iter().filter_map(|ev| ev.kind.site()).collect();
        sites.sort_unstable();
        sites.dedup();
        for site in sites {
            if let Some(label) = worlds_obs::site_label(site) {
                let ev = Event::new(EventKind::SiteLabel { site, label }, 0, None, 0);
                writeln!(w, "{}", ev.to_json())?;
                lines += 1;
            }
        }
        for ev in events {
            writeln!(w, "{}", ev.to_json())?;
            lines += 1;
        }
        w.flush()?;
        Ok(lines)
    }
}

impl TelemetryHub {
    /// Dump the flight ring to `path` as worlds-report-compatible
    /// JSONL, plus a `<path>.rollups.json` sidecar with the hub's
    /// rates, gauges and PI table at dump time. Returns the number of
    /// JSONL lines written.
    pub fn dump_flight(&self, path: &Path) -> std::io::Result<usize> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let lines = self.flight().dump_to(&mut file)?;
        let sidecar = sidecar_path(path);
        std::fs::write(sidecar, self.rollups_json())?;
        Ok(lines)
    }

    /// The sidecar document: one JSON object with rates, gauges, the
    /// PI table (with per-alternative CPU attribution), and — when the
    /// process-global sampler is live — its raw sample tables.
    /// Human-oriented; the wire codec is the stable one.
    pub fn rollups_json(&self) -> String {
        let r = self.rates();
        let g = self.gauges();
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            concat!(
                "{{\"window_ns\":{},\"events_s\":{:.1},\"spawns_s\":{:.1},",
                "\"commits_s\":{:.1},\"elims_s\":{:.1},\"faults_s\":{:.1},",
                "\"net_frames_s\":{:.1},\"rtt_mean_ns\":{:.0},",
                "\"cpu_util\":{:.4},\"stalls\":{},",
                "\"live_worlds\":{},\"frames_resident\":{},\"elim_backlog\":{},",
                "\"sites\":["
            ),
            r.window_ns,
            r.events_s,
            r.spawns_s,
            r.commits_s,
            r.elims_s,
            r.faults_s,
            r.net_frames_s,
            r.rtt_mean_ns,
            r.cpu_util,
            self.stalls(),
            g.live_worlds,
            g.frames_resident,
            g.elim_backlog,
        ));
        for (i, site) in self.site_table().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"site\":{},\"label\":{:?},\"commits\":{},\"r_mu\":{:.3},\"r_o\":{:.3},\"pi\":{:.3},\"cpu_r_mu\":{:.3},\"alts\":[",
                site.site, site.label, site.commits, site.r_mu, site.r_o, site.pi, site.cpu_r_mu
            ));
            for (j, alt) in site.alts.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"alt\":{},\"count\":{},\"mean_ns\":{:.0},\"cpu_ns\":{:.0}}}",
                    alt.alt, alt.count, alt.mean_ns, alt.cpu_ns
                ));
            }
            s.push_str("]}");
        }
        s.push_str("],\"prof\":");
        s.push_str(&prof_tables_json());
        s.push_str("}\n");
        s
    }
}

/// The process-global sampler's cumulative tables as JSON, `null` when
/// no sampler is live. Per-world rows are sorted so successive dumps
/// diff cleanly.
fn prof_tables_json() -> String {
    let Some(t) = worlds_prof::global_tables() else {
        return "null".into();
    };
    let mut s = format!(
        "{{\"ticks\":{},\"slot_samples\":{},\"busy_samples\":{},\"idle_samples\":{},\"stalls\":{},\"per_world\":[",
        t.ticks, t.slot_samples, t.busy_samples, t.idle_samples, t.stalls
    );
    let mut worlds: Vec<(u64, u64)> = t.per_world().into_iter().collect();
    worlds.sort_unstable();
    for (i, (world, samples)) in worlds.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"world\":{world},\"samples\":{samples}}}"));
    }
    s.push_str("]}");
    s
}

fn sidecar_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".rollups.json");
    PathBuf::from(os)
}

/// Chain a panic hook that dumps `hub`'s flight ring to `path` before
/// the previous hook (usually the default backtrace printer) runs.
/// Holds only a weak reference: a dropped hub turns the hook into a
/// no-op instead of keeping the ring alive forever.
pub fn install_panic_dump(hub: &Arc<TelemetryHub>, path: impl Into<PathBuf>) {
    let hub = Arc::downgrade(hub);
    let path = path.into();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(hub) = hub.upgrade() {
            match hub.dump_flight(&path) {
                Ok(n) => eprintln!(
                    "worlds-telemetry: flight recorder dumped {n} lines to {}",
                    path.display()
                ),
                Err(e) => eprintln!(
                    "worlds-telemetry: flight dump to {} failed: {e}",
                    path.display()
                ),
            }
        }
        prev(info);
    }));
}

#[cfg(unix)]
static SIGUSR1_PENDING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The signal handler itself only flips a flag — the only
/// async-signal-safe thing a dump could start with. A watcher thread
/// notices and does the file I/O.
#[cfg(unix)]
extern "C" fn on_sigusr1(_sig: libc::c_int) {
    SIGUSR1_PENDING.store(true, Relaxed);
}

/// Dump `hub`'s flight ring to `path` whenever the process receives
/// `SIGUSR1`: interrogate a live (or wedged) run with `kill -USR1
/// <pid>` without stopping it. The watcher thread exits when the hub
/// is dropped.
#[cfg(unix)]
pub fn install_sigusr1_dump(hub: &Arc<TelemetryHub>, path: impl Into<PathBuf>) {
    unsafe {
        libc::signal(
            libc::SIGUSR1,
            on_sigusr1 as extern "C" fn(libc::c_int) as *const () as libc::sighandler_t,
        );
    }
    let hub = Arc::downgrade(hub);
    let path = path.into();
    let _ = std::thread::Builder::new()
        .name("worlds-flight-usr1".into())
        .spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_millis(50));
            let Some(hub) = hub.upgrade() else { return };
            if SIGUSR1_PENDING.swap(false, Relaxed) {
                match hub.dump_flight(&path) {
                    Ok(n) => eprintln!(
                        "worlds-telemetry: SIGUSR1: dumped {n} lines to {}",
                        path.display()
                    ),
                    Err(e) => eprintln!(
                        "worlds-telemetry: SIGUSR1 dump to {} failed: {e}",
                        path.display()
                    ),
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(world: u64, wall_ns: u64) -> Event {
        let mut e = Event::new(EventKind::Spawn { alt: 0 }, world, None, 0);
        e.wall_ns = wall_ns;
        e
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let ring = FlightRecorder::new(4);
        for w in 0..10u64 {
            ring.record_event(&ev(w, w));
        }
        let got: Vec<u64> = ring.events().iter().map(|e| e.world).collect();
        assert_eq!(got, vec![6, 7, 8, 9], "last 4, oldest first");
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.capacity(), 4);
    }

    #[test]
    fn partial_ring_keeps_order() {
        let ring = FlightRecorder::new(8);
        for w in 0..3u64 {
            ring.record_event(&ev(w, w));
        }
        let got: Vec<u64> = ring.events().iter().map(|e| e.world).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn rollups_sidecar_is_valid_json_with_prof_fields() {
        let hub = TelemetryHub::default();
        let site = worlds_obs::site_id("flight-test/site").0;
        let mut guard = Event::new(
            EventKind::GuardVerdict {
                pass: true,
                duration_ns: 1000,
                alt: Some(0),
                site: Some(site),
            },
            3,
            None,
            0,
        );
        guard.wall_ns = 10;
        hub.absorb(&guard);
        let mut cpu = Event::new(
            EventKind::CpuSamples {
                samples: 5,
                period_ns: 1000,
                site: Some(site),
                alt: Some(0),
                phase: 2,
            },
            3,
            None,
            0,
        );
        cpu.wall_ns = 20;
        hub.absorb(&cpu);
        let json = hub.rollups_json();
        worlds_obs::validate_json(&json).expect("sidecar is valid JSON");
        assert!(json.contains("\"cpu_util\""), "{json}");
        assert!(json.contains("\"stalls\":0"), "{json}");
        assert!(json.contains("\"cpu_r_mu\""), "{json}");
        assert!(json.contains("\"cpu_ns\":5000"), "{json}");
        // No global sampler in this test process slot: prof is null or
        // a table, both valid — the key must exist either way.
        assert!(json.contains("\"prof\":"), "{json}");
    }

    #[test]
    fn flight_path_resolves_against_env_dir() {
        // Env mutation: test process only.
        let dir = std::env::temp_dir().join("worlds_flight_dir_test");
        std::env::set_var(env::FLIGHT_DIR, &dir);
        let p = flight_path("dump.jsonl");
        assert_eq!(p, dir.join("dump.jsonl"));
        assert!(dir.is_dir(), "flight_dir creates the directory");
        // Absolute names bypass the directory.
        let abs = std::env::temp_dir().join("elsewhere.jsonl");
        assert_eq!(flight_path(&abs), abs);
        std::env::remove_var(env::FLIGHT_DIR);
        assert_eq!(flight_path("dump.jsonl"), Path::new(".").join("dump.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_is_meta_headed_parseable_jsonl() {
        let ring = FlightRecorder::new(4);
        for w in 0..6u64 {
            ring.record_event(&ev(w, w * 10));
        }
        let mut buf = Vec::new();
        let lines = ring.dump_to(&mut buf).unwrap();
        assert_eq!(lines, 5, "meta + 4 retained events");
        let text = String::from_utf8(buf).unwrap();
        let parsed: Vec<Event> = text
            .lines()
            .map(|l| Event::from_json(l).expect("every dumped line parses"))
            .collect();
        assert!(matches!(parsed[0].kind, EventKind::Meta { .. }));
        let worlds: Vec<u64> = parsed[1..].iter().map(|e| e.world).collect();
        assert_eq!(
            worlds,
            vec![2, 3, 4, 5],
            "truncated to the newest, in order"
        );
    }
}
