//! Pluggable event destinations.
//!
//! A [`Registry`](crate::Registry) fans every emitted event out to its
//! sinks. Two ship here: a bounded in-memory ring (tests, the telemetry
//! hub's flight recorder, post-mortem dumps) and a JSONL writer
//! (offline analysis via `worlds-report` or `crates/analysis`).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::event::{Event, EventKind};

/// Receives every event the registry emits. Implementations must be
/// cheap and non-blocking-ish: they run inline at the emit site.
pub trait EventSink: Send + Sync {
    /// Record one event.
    fn record(&self, ev: &Event);
    /// Push buffered output to its destination.
    fn flush(&self) {}
}

/// Keeps the last `capacity` events in memory.
///
/// The ring is a vector of slot mutexes plus one atomic cursor, built
/// for concurrent writers. Writers `fetch_add` the cursor and overwrite
/// their slot; each lock is uncontended unless two writers collide on
/// the same slot a full lap apart. Readers walk the last `capacity`
/// indices, so a snapshot taken while writers are active can miss or
/// double-count the events in flight at the boundary — the usual
/// snapshot contract.
pub struct RingSink {
    slots: Vec<Mutex<Option<Event>>>,
    /// Total events ever recorded; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least 1; oldest
    /// evicted first).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
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

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Copy of the retained events, oldest first.
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
    /// provenance line: a capture `worlds-report` replays like any
    /// other. Returns the number of lines written (Meta included).
    pub fn dump_to<W: Write>(&self, w: &mut W) -> std::io::Result<usize> {
        let meta = Event::new(
            EventKind::Meta {
                effective_cores: crate::effective_cores(),
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
            if let Some(label) = crate::site_label(site) {
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

impl EventSink for RingSink {
    #[inline]
    fn record(&self, ev: &Event) {
        let idx = self.cursor.fetch_add(1, Relaxed) as usize % self.slots.len();
        *self.slots[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(ev.clone());
    }
}

/// Writes one JSON object per line to any `Write`.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<BufWriter<W>>,
}

impl JsonlSink<File> {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink<File>> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Stream events into `writer`.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            out: Mutex::new(BufWriter::new(writer)),
        }
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn record(&self, ev: &Event) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // Disk-full mid-run should not take the simulation down with it;
        // flush() surfaces errors for callers that care.
        let _ = writeln!(out, "{}", ev.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        EventSink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(world: u64) -> Event {
        Event::new(EventKind::Rendezvous, world, None, world * 10)
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let ring = RingSink::new(3);
        for w in 1..=5 {
            ring.record(&ev(w));
        }
        let worlds: Vec<u64> = ring.events().iter().map(|e| e.world).collect();
        assert_eq!(worlds, vec![3, 4, 5]);
        assert_eq!(ring.dropped(), 2);
    }

    fn spawn_at(world: u64, wall_ns: u64) -> Event {
        let mut e = Event::new(EventKind::Spawn { alt: 0 }, world, None, 0);
        e.wall_ns = wall_ns;
        e
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let ring = RingSink::new(4);
        for w in 0..10u64 {
            ring.record(&spawn_at(w, w));
        }
        let got: Vec<u64> = ring.events().iter().map(|e| e.world).collect();
        assert_eq!(got, vec![6, 7, 8, 9], "last 4, oldest first");
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.capacity(), 4);
    }

    #[test]
    fn partial_ring_keeps_order() {
        let ring = RingSink::new(8);
        for w in 0..3u64 {
            ring.record(&spawn_at(w, w));
        }
        let got: Vec<u64> = ring.events().iter().map(|e| e.world).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn dump_is_meta_headed_parseable_jsonl() {
        let ring = RingSink::new(4);
        for w in 0..6u64 {
            ring.record(&spawn_at(w, w * 10));
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

    #[test]
    fn jsonl_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(&ev(1));
        sink.record(&ev(2));
        sink.flush();
        let bytes = {
            let guard = sink.out.lock().unwrap();
            guard.get_ref().clone()
        };
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<Event> = text.lines().map(|l| Event::from_json(l).unwrap()).collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].world, 2);
    }
}
