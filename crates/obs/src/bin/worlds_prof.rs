//! `worlds-prof` — render a capture's profiler samples as collapsed
//! folded stacks (`site;world;phase count`), ready for flamegraph
//! tooling (`flamegraph.pl`, inferno, speedscope).
//!
//! ```text
//! worlds-prof run.jsonl                 # folded stacks to stdout
//! worlds-prof run.jsonl --out f.folded  # ... to a file
//! worlds-prof run.jsonl --summary      # per-world/per-site totals
//! ```
//!
//! Exits nonzero when the capture holds no profiler samples, matching
//! `worlds-report --cpu`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use worlds_obs::prof::render_folded_events;
use worlds_obs::{fmt_ns, site_label_or_anon, Event, EventKind};

fn usage() -> ! {
    eprintln!("usage: worlds-prof <capture.jsonl> [--out <path>] [--summary]");
    std::process::exit(2);
}

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut summary = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--summary" => summary = true,
            "--help" | "-h" => usage(),
            _ if path.is_none() => path = Some(arg),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());

    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("worlds-prof: {path}: {e}");
            return 1;
        }
    };
    let mut events: Vec<Event> = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("worlds-prof: read error: {e}");
                return 1;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // Tolerate malformed lines the same way worlds-report does.
        if let Ok(ev) = Event::from_json(&line) {
            events.push(ev);
        }
    }

    let samples: u64 = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::CpuSamples { samples, .. } => Some(*samples),
            _ => None,
        })
        .sum();
    if samples == 0 {
        eprintln!("worlds-prof: no profiler samples in {path} (run with WORLDS_PROF=1)");
        return 1;
    }

    let folded = render_folded_events(&events);
    match &out {
        Some(dest) => {
            if let Err(e) = std::fs::write(dest, &folded) {
                eprintln!("worlds-prof: {dest}: {e}");
                return 1;
            }
            eprintln!(
                "worlds-prof: {} folded lines ({samples} samples) -> {dest}",
                folded.lines().count()
            );
        }
        None => print!("{folded}"),
    }

    if summary {
        print!("{}", render_summary(&events));
    }
    0
}

/// Per-world and per-site totals, largest CPU first.
fn render_summary(events: &[Event]) -> String {
    let mut per_world: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut per_site: BTreeMap<Option<u64>, (u64, u64)> = BTreeMap::new();
    for ev in events {
        if let EventKind::CpuSamples {
            samples,
            period_ns,
            site,
            ..
        } = &ev.kind
        {
            let ns = samples.saturating_mul(*period_ns);
            let w = per_world.entry(ev.world).or_insert((0, 0));
            w.0 += samples;
            w.1 += ns;
            let s = per_site.entry(*site).or_insert((0, 0));
            s.0 += samples;
            s.1 += ns;
        }
    }
    let mut out = String::new();
    out.push_str("== est. on-CPU per world ==\n");
    let mut worlds: Vec<_> = per_world.into_iter().collect();
    worlds.sort_by_key(|&(_, (_, ns))| std::cmp::Reverse(ns));
    for (world, (samples, ns)) in worlds {
        out.push_str(&format!(
            "  world {world:<6} samples={samples:<8} est_cpu={}\n",
            fmt_ns(ns)
        ));
    }
    out.push_str("== est. on-CPU per site ==\n");
    let mut sites: Vec<_> = per_site.into_iter().collect();
    sites.sort_by_key(|&(_, (_, ns))| std::cmp::Reverse(ns));
    for (site, (samples, ns)) in sites {
        let label = match site {
            Some(id) => site_label_or_anon(id),
            None => "unattributed".into(),
        };
        out.push_str(&format!(
            "  {label:<28} samples={samples:<8} est_cpu={}\n",
            fmt_ns(ns)
        ));
    }
    out
}
