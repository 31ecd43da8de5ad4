//! The flight recorder under fire: a run that panics mid-speculation
//! and leaves behind a replayable black box.
//!
//! ```sh
//! cargo run --example flight_recorder
//! WORLDS_FLIGHT_DUMP=/tmp/crash.jsonl cargo run --example flight_recorder
//! cargo run -p worlds-telemetry --bin worlds-report -- /tmp/crash.jsonl
//! ```
//!
//! A [`TelemetryHub`] rides the registry as a sink, so its bounded ring
//! holds the last few thousand events at all times. The panic hook
//! installed by [`install_panic_dump`] writes that ring — provenance
//! `meta` line first, oldest event next — to a JSONL file that
//! `worlds-report` replays like any live capture, plus a
//! `.rollups.json` sidecar with the rates and PI table at the moment
//! of death. The example forces a panic, catches it, and then replays
//! its own dump to prove the black box survived the crash.

use std::sync::Arc;
use worlds_obs::{env, Registry, RunStats};
use worlds_pagestore::PageStore;
use worlds_telemetry::{install_panic_dump, TelemetryHub};

fn main() {
    let dump = env::path(env::FLIGHT_DUMP)
        .unwrap_or_else(|| std::env::temp_dir().join("worlds_flight_demo.jsonl"))
        .display()
        .to_string();
    let hub = Arc::new(TelemetryHub::default());
    let obs = Registry::with_sinks(vec![hub.clone()]);
    install_panic_dump(&hub, &dump);

    // Real memory traffic: fork a family of worlds off a shared parent
    // and dirty their pages, so the ring fills with spawn-free CoW and
    // zero-fill events.
    let store = PageStore::with_obs(256, obs.clone());
    let parent = store.create_world();
    for vpn in 0..16 {
        store
            .write(parent, vpn, 0, &[0xAB; 64])
            .expect("parent live");
    }
    let children: Vec<_> = (0..8)
        .map(|_| store.fork_world(parent).expect("fork"))
        .collect();
    for (i, &child) in children.iter().enumerate() {
        for vpn in 0..4 {
            store
                .write(child, vpn, 0, &[i as u8; 64])
                .expect("child live");
        }
    }
    println!(
        "flight ring armed: {} events recorded, capacity {}",
        hub.flight().recorded(),
        hub.flight().capacity()
    );

    // The "crash". The hook dumps before the unwind is caught.
    let result = std::panic::catch_unwind(|| {
        panic!("demo failure: guard dereferenced a committed sibling");
    });
    assert!(result.is_err(), "the panic really happened");

    // Post-mortem: replay our own black box through the same mapping
    // worlds-report uses.
    let text = std::fs::read_to_string(&dump).expect("dump written by panic hook");
    let stats = RunStats::new();
    let mut lines = 0u64;
    for line in text.lines() {
        let ev = worlds_obs::Event::from_json(line).expect("every dumped line parses");
        stats.absorb(&ev);
        lines += 1;
    }
    println!("post-mortem: {lines} JSONL lines replayed from {dump}");
    println!(
        "  faults seen by the recorder: {} ({} CoW copies)",
        stats.pagestore.faults.get(),
        stats.pagestore.page_copies.get()
    );
    assert!(lines > 1, "meta line plus events");
    assert!(
        stats.pagestore.page_copies.get() > 0,
        "the CoW traffic survived the crash"
    );
    let sidecar = format!("{dump}.rollups.json");
    assert!(
        std::fs::metadata(&sidecar).is_ok(),
        "rollup sidecar written"
    );
    println!("  rollup sidecar: {sidecar}");
    println!("ok: the black box outlived the panic");
}
