//! `worlds-top` — a refreshing terminal view of a live cluster: the
//! one live viewer.
//!
//! ```text
//! worlds-top 127.0.0.1:4200                # refresh every second
//! worlds-top 127.0.0.1:4200 --interval 250 # faster
//! worlds-top 127.0.0.1:4200 --once         # one snapshot (CI, scripts)
//! worlds-top 127.0.0.1:4200 --once --json  # machine-readable snapshot
//! worlds-top 127.0.0.1:4200 --sessions     # per-session rows (front door)
//! ```
//!
//! Point it at a [`Collector`](worlds_telemetry::Collector) for the
//! whole cluster, or at any single node that called
//! [`install_node_handler`](worlds_telemetry::install_node_handler)
//! for a one-row table. With `--sessions`, point it at a worlds-server
//! front door instead: each refresh shows one row per admitted session
//! (tenant name, lineage parent, live worlds, resident frames, vt
//! budget burn-down, rejections, fair-queue depth). Each refresh is
//! one `Telemetry` query over the worlds-net framed wire.

use std::io::Write;
use worlds_telemetry::{
    query_sessions, query_table, render_cluster, render_cluster_json, render_sessions,
    render_sessions_json,
};

const USAGE: &str = "usage: worlds-top ADDR [--once] [--json] [--sessions] [--interval MS]";

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut addr: Option<String> = None;
    let mut once = false;
    let mut json = false;
    let mut sessions = false;
    let mut interval_ms = 1000u64;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--json" => json = true,
            "--sessions" => sessions = true,
            "--interval" => {
                interval_ms = match it.next().map(|v| v.parse()) {
                    Some(Ok(ms)) => ms,
                    _ => {
                        eprintln!("worlds-top: --interval needs a millisecond argument");
                        eprintln!("{USAGE}");
                        return 2;
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return 2;
            }
            other if other.starts_with("--") => {
                eprintln!("worlds-top: unknown flag {other}");
                eprintln!("{USAGE}");
                return 2;
            }
            other => {
                if addr.replace(other.to_string()).is_some() {
                    eprintln!("worlds-top: exactly one ADDR");
                    eprintln!("{USAGE}");
                    return 2;
                }
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("{USAGE}");
        return 2;
    };
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("worlds-top: {addr}: {e}");
            return 2;
        }
    };
    let mut failures = 0u32;
    loop {
        let rendered = if sessions {
            query_sessions(addr).map(|table| {
                if json {
                    render_sessions_json(&table)
                } else {
                    render_sessions(&table)
                }
            })
        } else {
            query_table(addr).map(|table| {
                if json {
                    render_cluster_json(&table)
                } else {
                    render_cluster(&table)
                }
            })
        };
        match rendered {
            Ok(text) => {
                failures = 0;
                if !once && !json {
                    print!("\x1b[2J\x1b[H");
                }
                print!("{text}");
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                eprintln!("worlds-top: query {addr}: {e}");
                if once {
                    return 1;
                }
                // Keep trying through restarts, but give up when the
                // endpoint stays dead.
                failures += 1;
                if failures >= 10 {
                    eprintln!("worlds-top: endpoint unreachable, giving up");
                    return 1;
                }
            }
        }
        if once {
            return 0;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}
