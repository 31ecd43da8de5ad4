//! `worlds-report` — replay a JSONL event stream into the summary table
//! and the worlds-trace analyses. `worlds-top` is the live viewer.
//!
//! ```text
//! worlds-report run.jsonl                  # summary table from a file
//! worlds-report -                          # from stdin
//! worlds-report --critical-path run.jsonl  # + winner-lineage table
//! worlds-report --waste run.jsonl          # + waste-attribution table
//! worlds-report --net run.jsonl            # + per-node wire-traffic table
//! worlds-report --dedupe run.jsonl         # + per-world dedupe residency
//! worlds-report --cpu run.jsonl            # + per-world CPU attribution
//! worlds-report --trace-out t.json run.jsonl  # + Chrome trace for Perfetto
//! ```
//!
//! Replays every event through the same [`RunStats`] mapping the live
//! registry uses, so the printed table matches what the run itself
//! would have printed. Malformed lines are skipped and counted (count on
//! stderr), never fatal mid-stream — a truncated file from a crashed run
//! still yields a report. The exit code is nonzero when the input is
//! empty, *every* line was malformed, or a requested analysis
//! (`--net`, `--waste`, `--cpu`) has no matching events to analyse.
//!
//! A capture whose `meta` line records `effective_cores: 1` gets a
//! caveat banner on stderr: its "parallel" timings were taken with no
//! cores to run on.

use std::io::{BufRead, BufReader, Read, Write};

use worlds_obs::{chrome_trace_json, Event, EventKind, Histogram, RunStats, SpanTree};

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

const USAGE: &str = "usage: worlds-report [--critical-path] [--waste] [--net] [--dedupe] [--cpu] [--trace-out FILE] [<events.jsonl> | -]";

struct Options {
    path: String,
    critical_path: bool,
    waste: bool,
    net: bool,
    dedupe: bool,
    cpu: bool,
    trace_out: Option<String>,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        path: "-".to_string(),
        critical_path: false,
        waste: false,
        net: false,
        dedupe: false,
        cpu: false,
        trace_out: None,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--critical-path" => opts.critical_path = true,
            "--waste" => opts.waste = true,
            "--net" => opts.net = true,
            "--dedupe" => opts.dedupe = true,
            "--cpu" => opts.cpu = true,
            "--trace-out" => {
                opts.trace_out = Some(
                    it.next()
                        .ok_or_else(|| "--trace-out needs a file argument".to_string())?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            other => positional.push(other.to_string()),
        }
    }
    match positional.len() {
        0 => {}
        1 => opts.path = positional.remove(0),
        _ => return Err("at most one input path".to_string()),
    }
    Ok(opts)
}

fn run(args: Vec<String>) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("worlds-report: {msg}");
            }
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let reader: Box<dyn Read> = if opts.path == "-" {
        Box::new(std::io::stdin())
    } else {
        match std::fs::File::open(&opts.path) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("worlds-report: cannot open {}: {e}", opts.path);
                return 1;
            }
        }
    };

    // The span analyses (and the per-node net table) need the events
    // themselves, not just the folded counters; collect as we stream.
    let need_spans = opts.critical_path || opts.waste || opts.cpu || opts.trace_out.is_some();
    let need_events = need_spans || opts.net || opts.dedupe;
    let stats = RunStats::new();
    let mut events: Vec<Event> = Vec::new();
    let mut total = 0u64;
    let mut bad = 0u64;
    let mut min_cores: Option<u64> = None;
    let mut saw_net = false;
    let mut saw_spawn = false;
    let mut saw_dedupe = false;
    for line in BufReader::new(reader).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("worlds-report: read error: {e}");
                return 1;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        total += 1;
        match Event::from_json(&line) {
            Ok(ev) => {
                stats.absorb(&ev);
                match ev.kind {
                    EventKind::Meta { effective_cores } => {
                        min_cores = Some(
                            min_cores.map_or(effective_cores, |m: u64| m.min(effective_cores)),
                        );
                    }
                    EventKind::NetSend { .. }
                    | EventKind::NetRecv { .. }
                    | EventKind::NetRetry { .. }
                    | EventKind::NetTimeout { .. }
                    | EventKind::NetNack { .. } => saw_net = true,
                    EventKind::Spawn { .. } => saw_spawn = true,
                    EventKind::FrameDedup { .. } => saw_dedupe = true,
                    _ => {}
                }
                if need_events {
                    events.push(ev);
                }
            }
            Err(e) => {
                bad += 1;
                if bad <= 5 {
                    eprintln!("worlds-report: line {total}: {e}");
                }
            }
        }
    }

    println!("{}", stats.render_summary());
    println!("events replayed: {} ({} malformed)", total - bad, bad);
    if bad > 0 {
        eprintln!("worlds-report: skipped {bad} malformed line(s) of {total}");
    }
    if min_cores == Some(1) {
        // Stderr, so golden-fixture stdout comparisons stay exact.
        eprintln!(
            "worlds-report: CAVEAT: capture recorded with effective_cores: 1 — \
             speculation ran time-sliced on one CPU, so wall-clock spans and \
             rates understate what parallel hardware would do"
        );
    }
    if total == 0 {
        eprintln!("worlds-report: no events in input");
        return 1;
    }
    if bad == total {
        eprintln!("worlds-report: every line was malformed");
        return 1;
    }

    let mut missing = 0;
    if opts.dedupe {
        println!("{}", render_dedupe_by_world(&events));
        if !saw_dedupe {
            eprintln!(
                "worlds-report: --dedupe requested but the capture has no frame_dedup events \
                 (record with PageStore::set_dedupe(true))"
            );
            missing += 1;
        }
    }
    if opts.net {
        println!("{}", render_net_by_node(&events));
        if !saw_net {
            eprintln!("worlds-report: --net requested but the capture has no net_* events");
            missing += 1;
        }
    }

    if need_spans {
        let tree = SpanTree::build(&events);
        if opts.critical_path {
            println!("{}", tree.render_critical_path());
        }
        if opts.waste {
            println!("{}", tree.render_waste());
            if !saw_spawn {
                eprintln!("worlds-report: --waste requested but the capture has no spawn events");
                missing += 1;
            }
        }
        if opts.cpu {
            println!("{}", render_cpu(&tree));
            if tree.total_cpu_samples() == 0 {
                eprintln!(
                    "worlds-report: --cpu requested but the capture has no cpu sample events \
                     (record with WORLDS_PROF=1)"
                );
                missing += 1;
            }
        }
        if let Some(path) = &opts.trace_out {
            let doc = chrome_trace_json(&tree);
            if let Err(e) = std::fs::File::create(path).and_then(|mut f| {
                f.write_all(doc.as_bytes())?;
                f.flush()
            }) {
                eprintln!("worlds-report: cannot write {path}: {e}");
                return 1;
            }
            eprintln!(
                "worlds-report: wrote Chrome trace ({} worlds, {} causal edges) to {path}",
                tree.len(),
                tree.edges().len()
            );
        }
    }
    if missing > 0 {
        return 1;
    }
    0
}

/// The `--cpu` table: profiler samples attributed per world, wall vs
/// estimated on-CPU time, plus per-worker utilization. Each line keeps
/// est-CPU capped at the span's wall time (the same invariant the
/// critical-path table holds).
fn render_cpu(tree: &SpanTree) -> String {
    use worlds_obs::fmt_ns;

    let total = tree.total_cpu_samples();
    let mut out = String::from("== cpu attribution (sampling profiler) ==\n");
    if total == 0 {
        out.push_str("  no cpu sample events in this capture\n");
        return out;
    }
    let mut spans: Vec<_> = tree.spans().filter(|s| s.cpu_samples > 0).collect();
    spans.sort_by_key(|s| std::cmp::Reverse(s.cpu_samples));
    for s in &spans {
        let alt = match s.alt {
            Some(a) => format!("alt {a}"),
            None => "root".to_string(),
        };
        out.push_str(&format!(
            "  world {:<6} {:<8} samples={:<7} wall={:<9} cpu={:<9} ({:>3.0}% of attributed)\n",
            s.world,
            alt,
            s.cpu_samples,
            fmt_ns(s.duration_ns()),
            fmt_ns(s.est_cpu_capped_ns()),
            100.0 * s.cpu_samples as f64 / total as f64,
        ));
    }
    let util = tree.worker_util();
    if !util.is_empty() {
        // Fold the flush points into one lifetime ratio per worker.
        let mut per_worker: std::collections::BTreeMap<u64, (u64, u64)> =
            std::collections::BTreeMap::new();
        for p in util {
            let w = per_worker.entry(p.worker).or_insert((0, 0));
            w.0 += p.busy;
            w.1 += p.total;
        }
        for (worker, (busy, total)) in per_worker {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * busy as f64 / total as f64
            };
            out.push_str(&format!(
                "  worker {worker}: on-CPU {busy}/{total} sampler ticks ({pct:.0}%)\n"
            ));
        }
    }
    out
}

/// The `--dedupe` table: resident bytes attributed per world, split
/// into *unique* (COW copies the world actually materialised, plus
/// zero-filled pages) and *duplicated-avoided* (bytes the
/// content-addressed index re-shared instead of copying —
/// `frame_dedup` events). The companion to the folded `[dedupe]`
/// section of the summary: that says how much the index saved overall,
/// this says **which worlds** were the duplicates.
fn render_dedupe_by_world(events: &[Event]) -> String {
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Row {
        cow_bytes: u64,
        zero_pages: u64,
        dedup_bytes: u64,
    }

    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::CowCopy { bytes, .. } => rows.entry(e.world).or_default().cow_bytes += bytes,
            EventKind::ZeroFill { .. } => rows.entry(e.world).or_default().zero_pages += 1,
            EventKind::FrameDedup { bytes, .. } => {
                rows.entry(e.world).or_default().dedup_bytes += bytes
            }
            _ => {}
        }
    }

    let mut out = String::from("== dedupe residency (per world) ==\n");
    if rows.is_empty() {
        out.push_str("  no cow_copy/zero_fill/frame_dedup events in this capture\n");
        return out;
    }
    out.push_str(&format!(
        "  {:<8} {:>14} {:>11} {:>14} {:>7}\n",
        "world", "unique_bytes", "zero_pages", "deduped_bytes", "shared"
    ));
    let (mut unique_total, mut dedup_total) = (0u64, 0u64);
    for (world, r) in &rows {
        let touched = r.cow_bytes + r.dedup_bytes;
        let share = if touched == 0 {
            "-".to_string()
        } else {
            format!("{:.0}%", 100.0 * r.dedup_bytes as f64 / touched as f64)
        };
        out.push_str(&format!(
            "  {:<8} {:>14} {:>11} {:>14} {:>7}\n",
            world, r.cow_bytes, r.zero_pages, r.dedup_bytes, share
        ));
        unique_total += r.cow_bytes;
        dedup_total += r.dedup_bytes;
    }
    let touched = unique_total + dedup_total;
    if touched > 0 {
        out.push_str(&format!(
            "  total: {unique_total} unique bytes materialised, {dedup_total} duplicated bytes \
             avoided ({:.0}% of touched bytes shared)\n",
            100.0 * dedup_total as f64 / touched as f64
        ));
    }
    out
}

/// The `--net` table: wire traffic attributed per destination node, plus
/// the aggregate round-trip histogram. Built from the raw `net_*` events
/// (the folded [`RunStats`] counters cannot say *which* node retried).
fn render_net_by_node(events: &[Event]) -> String {
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Row {
        frames_out: u64,
        bytes_out: u64,
        frames_in: u64,
        bytes_in: u64,
        retries: u64,
        timeouts: u64,
        /// Refusals by nack code; rendered as a per-reason line only
        /// when nonzero, so nack-free captures stay byte-identical.
        nacks: BTreeMap<u32, u64>,
    }

    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    let rtt = Histogram::new();
    let (mut evictions, mut evicted_bytes) = (0u64, 0u64);
    for e in events {
        match e.kind {
            EventKind::NetSend { node, bytes } => {
                let r = rows.entry(node).or_default();
                r.frames_out += 1;
                r.bytes_out += bytes;
            }
            EventKind::NetCacheEvict { bytes, .. } => {
                evictions += 1;
                evicted_bytes += bytes;
            }
            EventKind::NetRecv {
                node,
                bytes,
                rtt_ns,
            } => {
                let r = rows.entry(node).or_default();
                r.frames_in += 1;
                r.bytes_in += bytes;
                rtt.record(rtt_ns);
            }
            EventKind::NetRetry { node, .. } => {
                rows.entry(node).or_default().retries += 1;
            }
            EventKind::NetTimeout { node, .. } => {
                rows.entry(node).or_default().timeouts += 1;
            }
            EventKind::NetNack { node, code } => {
                *rows
                    .entry(node)
                    .or_default()
                    .nacks
                    .entry(code as u32)
                    .or_default() += 1;
            }
            _ => {}
        }
    }

    let mut out = String::from("== net transport (per node) ==\n");
    if rows.is_empty() {
        out.push_str("  no net_* events in this capture\n");
        // Line is conditional on nonzero so eviction-free captures keep
        // their golden output byte-identical.
        if evictions > 0 {
            out.push_str(&format!(
                "  delta-base cache: {evictions} eviction(s), {evicted_bytes} bytes unpinned\n"
            ));
        }
        return out;
    }
    out.push_str(&format!(
        "  {:<6} {:>10} {:>12} {:>10} {:>12} {:>8} {:>9}\n",
        "node", "frames_out", "bytes_out", "frames_in", "bytes_in", "retries", "timeouts"
    ));
    for (node, r) in &rows {
        out.push_str(&format!(
            "  {:<6} {:>10} {:>12} {:>10} {:>12} {:>8} {:>9}\n",
            node, r.frames_out, r.bytes_out, r.frames_in, r.bytes_in, r.retries, r.timeouts
        ));
    }
    for (node, r) in &rows {
        if r.nacks.is_empty() {
            continue;
        }
        let reasons = r
            .nacks
            .iter()
            .map(|(code, n)| format!("{}={n}", worlds_net::nack::reason(*code)))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!("  node {node} nacks        {reasons}\n"));
    }
    let snap = rtt.snapshot();
    if snap.count > 0 {
        out.push_str(&format!(
            "  rtt                    {}\n",
            snap.summary_line()
        ));
    }
    if evictions > 0 {
        out.push_str(&format!(
            "  delta-base cache: {evictions} eviction(s), {evicted_bytes} bytes unpinned\n"
        ));
    }
    out
}
