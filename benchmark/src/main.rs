//! The benchmark `BENCHMARK.json` runs.
//!
//! ```text
//! worlds-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!                  [--aa] [--smoke] [--manifest]
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is the result object the driver reads. Without
//! it, every workload runs in a fresh child process each (so the global
//! executor and reaper, the allocator and peak RSS start clean), plain and
//! traced unless `--trace` picks one, and the metrics are printed by name.
//! `--aa` runs two interleaved sets of that and compares them.

mod json;
mod metrics;
mod probes;
mod procinfo;
mod protocol;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{Better, END_TO_END, EXACT_EVERYWHERE, EXACT_ON_STORE_WORKLOADS, WORKLOADS};
use protocol::{Cfg, Outcome};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)` plain only, `Some(true)` traced only, `None` both.
    trace: Option<bool>,
    aa: bool,
    smoke: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1989,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        aa: false,
        smoke: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => args.trace = Some(true),
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where traced runs leave their span lists: `out/` in this package.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_provenance(args: &Args) {
    let p = procinfo::Provenance::collect();
    println!(
        "worlds-benchmark: nproc={} effective_cores={} git={} rustc=\"{}\" seed={} seconds={}{}",
        p.nproc,
        p.effective_cores,
        p.git_sha,
        p.rustc,
        args.seed,
        args.seconds,
        if args.smoke {
            " SMOKE (numbers are not measurements)"
        } else {
            ""
        }
    );
}

/// Every metric by name, with its unit.
fn print_metrics<'a>(rows: impl Iterator<Item = (&'a str, f64)>) {
    for (metric, value) in rows {
        println!("  {metric:<36} {value:>16.4} {}", metrics::unit_of(metric));
    }
}

/// The driver's result object: one line, the last of standard output.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(metrics::unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn run_child(args: &Args, name: &str) -> ExitCode {
    print_provenance(args);
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let traced = args.trace == Some(true);
    let out = out_dir();
    let Some(outcome) = workloads::run_named(name, &cfg, traced.then_some(out.as_path())) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(" "));
        return ExitCode::from(2);
    };
    println!(
        "workload {name} ({}): attempted {} ops, failed {}",
        if traced { "traced" } else { "plain" },
        outcome.attempted,
        outcome.failed
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    print_metrics(outcome.metrics.iter().copied());
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

/// One child run's metrics, read back from its result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_in_child(args: &Args, name: &str, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let v = json::parse(last)?;
    let field = |k: &str| v.get(k).ok_or(format!("result line lacks {k}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

/// Run every workload, each run in its own process, and print the metrics.
/// Returns whether every run was correct.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            if args.trace.is_some_and(|only| only != traced) {
                continue;
            }
            let r = run_in_child(args, w.name, traced).map_err(|e| format!("{}: {e}", w.name))?;
            println!(
                "{} ({}): attempted {} ops, failed {}{}",
                w.name,
                if traced { "traced" } else { "plain" },
                r.attempted,
                r.failed,
                if r.correct { "" } else { "  <-- INCORRECT" }
            );
            print_metrics(
                r.metrics
                    .iter()
                    .map(|(name, value)| (name.as_str(), *value)),
            );
            all_correct &= r.correct;
        }
    }
    Ok(all_correct)
}

/// Plain runs per set and workload in an A/A comparison.
const AA_ROUNDS: usize = 3;

/// One set's runs of one workload.
#[derive(Default)]
struct Side {
    plain: Vec<ChildResult>,
    traced: Option<ChildResult>,
}

impl Side {
    /// Median over the set's plain runs.
    fn median(&self, metric: &str) -> f64 {
        let values: Vec<f64> = self.plain.iter().map(|r| r.metrics[metric]).collect();
        stats::median(&values)
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Two sets of runs of the same code. The host drifts by more than the
/// bounds over minutes, so the sets are interleaved (A B, then B A, ...):
/// a slow phase then lands on both, and each side's value is the median of
/// its `AA_ROUNDS` runs. Every end-to-end metric must agree within its
/// bound in either direction and the exact counters must be identical.
fn run_aa(args: &Args) -> Result<bool, String> {
    let mut sides: BTreeMap<&str, [Side; 2]> = BTreeMap::new();
    let mut ok = true;
    let mut child = |w: &'static str, side: usize, traced: bool| -> Result<ChildResult, String> {
        let r = run_in_child(args, w, traced).map_err(|e| format!("{w}: {e}"))?;
        println!(
            "set {} {w} ({}): attempted {} ops, failed {}",
            ["A", "B"][side],
            if traced { "traced" } else { "plain" },
            r.attempted,
            r.failed
        );
        ok &= r.correct;
        Ok(r)
    };
    if args.trace != Some(true) {
        for round in 0..AA_ROUNDS {
            for w in &WORKLOADS {
                for side in [round % 2, 1 - round % 2] {
                    let r = child(w.name, side, false)?;
                    sides.entry(w.name).or_default()[side].plain.push(r);
                }
            }
        }
    }
    if args.trace != Some(false) {
        for w in &WORKLOADS {
            for side in [0, 1] {
                let r = child(w.name, side, true)?;
                sides.entry(w.name).or_default()[side].traced = Some(r);
            }
        }
    }

    println!("\nA/A: two interleaved sets of runs of the same code, medians of {AA_ROUNDS}");
    println!(
        "{:<16} {:<32} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for w in &WORKLOADS {
        let [a, b] = &sides[w.name];
        if !a.plain.is_empty() {
            for m in &END_TO_END {
                let (va, vb) = (a.median(m.name), b.median(m.name));
                let diff = worsening(va, vb, m.better);
                let breach = diff.abs() > m.bound;
                ok &= !breach;
                println!(
                    "{:<16} {:<32} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}%{}",
                    w.name,
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0,
                    if breach { "  <-- BREACH" } else { "" }
                );
            }
        }
        if let (Some(ta), Some(tb)) = (&a.traced, &b.traced) {
            let store_workload = w.name.starts_with("store_");
            let exact = EXACT_EVERYWHERE
                .iter()
                .chain(EXACT_ON_STORE_WORKLOADS.iter().filter(|_| store_workload));
            for &name in exact {
                let (va, vb) = (ta.metrics[name], tb.metrics[name]);
                let same = va.to_bits() == vb.to_bits();
                ok &= same;
                println!(
                    "{:<16} {name:<32} {va:>14.4} {vb:>14.4} {}",
                    w.name,
                    if same { "identical" } else { "<-- DIFFERS" }
                );
            }
        }
    }
    Ok(ok)
}

fn run_parent(args: &Args) -> ExitCode {
    print_provenance(args);
    let outcome = if args.aa { run_aa(args) } else { run_all(args) };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark found failed ops or an A/A breach");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: worlds-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--aa] [--smoke] [--manifest]");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest_json());
        return ExitCode::SUCCESS;
    }
    // Library defaults only: any WORLDS_* knob changes what is measured.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WORLDS_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset every WORLDS_* variable",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(name) => run_child(&args, name),
        None => run_parent(&args),
    }
}
