//! Rollup correctness under concurrent writers: merged windowed
//! snapshots must equal a full-stream replay, and the flight ring must
//! truncate oldest-first into a dump `worlds-report` can replay.

use std::sync::Arc;
use std::thread;
use worlds_obs::{Event, EventKind, EventSink, Histogram, HistogramSnapshot, RingSink, RunStats};
use worlds_telemetry::TelemetryHub;

fn ev(kind: EventKind, world: u64, wall_ns: u64) -> Event {
    let mut e = Event::new(kind, world, Some(0), 0);
    e.wall_ns = wall_ns;
    e
}

#[test]
fn sharded_histogram_snapshots_merge_to_full_stream() {
    // 8 writers, each with its own histogram shard and a shared one;
    // merging the shard snapshots must equal the shared histogram's
    // snapshot once all writers are done — the property the rollup
    // windows and the cluster collector both lean on.
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 10_000;
    let shared = Arc::new(Histogram::new());
    let shards: Vec<Arc<Histogram>> = (0..WRITERS).map(|_| Arc::new(Histogram::new())).collect();
    let handles: Vec<_> = shards
        .iter()
        .enumerate()
        .map(|(w, shard)| {
            let shard = shard.clone();
            let shared = shared.clone();
            thread::spawn(move || {
                for i in 0..PER_WRITER {
                    // Values spread across many buckets, deterministic
                    // per writer.
                    let v = (w as u64 + 1) * 37 + i * i % 100_000;
                    shard.record(v);
                    shared.record(v);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut merged = HistogramSnapshot::empty();
    for shard in &shards {
        merged.merge(&shard.snapshot());
    }
    assert_eq!(merged, shared.snapshot());
    assert_eq!(merged.count, WRITERS as u64 * PER_WRITER);
}

#[test]
fn hub_totals_survive_concurrent_emitters() {
    // Many threads record into one hub; lifetime counters must land
    // exactly, and the in-window rollup must agree with a
    // single-threaded replay of the same event multiset.
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 5_000;
    let hub = Arc::new(TelemetryHub::default());
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let hub = hub.clone();
            thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let world = w * PER_WRITER + i;
                    // Every event at wall_ns 0, so every event lands in
                    // one slot: the concurrent sum is then exactly
                    // comparable to the serial replay.
                    hub.record(&ev(EventKind::Spawn { alt: w }, world, 0));
                    hub.record(&ev(
                        EventKind::GuardVerdict {
                            pass: true,
                            duration_ns: 100 + w * 50,
                            alt: Some(w % 4),
                            site: Some(0),
                        },
                        world,
                        0,
                    ));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let replay = TelemetryHub::default();
    for w in 0..WRITERS {
        for i in 0..PER_WRITER {
            replay.absorb(&ev(EventKind::Spawn { alt: w }, w * PER_WRITER + i, 0));
            replay.absorb(&ev(
                EventKind::GuardVerdict {
                    pass: true,
                    duration_ns: 100 + w * 50,
                    alt: Some(w % 4),
                    site: Some(0),
                },
                w * PER_WRITER + i,
                0,
            ));
        }
    }
    assert_eq!(hub.rates(), replay.rates(), "one slot, same sums");
    assert_eq!(hub.gauges(), replay.gauges());
    assert_eq!(
        hub.gauges().live_worlds,
        WRITERS * PER_WRITER,
        "every spawn accounted"
    );
    // Site histograms absorbed every sample (wall_ns stayed 0, so no
    // decay step fired in either hub).
    let live = hub.site_table();
    let serial = replay.site_table();
    assert_eq!(live, serial, "concurrent == serial site table");
    let total: u64 = live[0].alts.iter().map(|a| a.count).sum();
    assert_eq!(total, WRITERS * PER_WRITER);
}

#[test]
fn flight_ring_truncates_under_concurrent_writers() {
    const CAP: usize = 256;
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 2_000;
    let ring = Arc::new(RingSink::new(CAP));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = ring.clone();
            thread::spawn(move || {
                for i in 0..PER_WRITER {
                    ring.record(&ev(EventKind::Rendezvous, w * PER_WRITER + i, i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ring.recorded(), WRITERS * PER_WRITER);
    let events = ring.events();
    assert!(events.len() <= CAP, "bounded: {} > {CAP}", events.len());
    // After the writers stop, the ring holds each writer's newest
    // events only — nothing older than (per-writer total - capacity)
    // can have survived.
    for e in &events {
        let within_writer = e.world % PER_WRITER;
        assert!(
            within_writer >= PER_WRITER - CAP as u64,
            "world {} is older than any possible survivor",
            e.world
        );
    }
    // The dump replays through the same absorb mapping worlds-report
    // uses, Meta header included.
    let mut buf = Vec::new();
    let lines = ring.dump_to(&mut buf).unwrap();
    assert_eq!(lines, events.len() + 1);
    let stats = RunStats::new();
    let mut parsed = 0;
    for line in String::from_utf8(buf).unwrap().lines() {
        let e = Event::from_json(line).expect("dump line parses");
        stats.absorb(&e);
        parsed += 1;
    }
    assert_eq!(parsed, lines);
    assert_eq!(stats.kernel.rendezvous.get() as usize, events.len());
}
