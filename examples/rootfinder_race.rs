//! The paper's §4.3 / Table I scenario: race Jenkins–Traub starting
//! angles over one polynomial, commit the first full set of roots.
//!
//! ```sh
//! cargo run --release --example rootfinder_race
//! ```
//!
//! One race lasts well under a millisecond — too brief for the
//! sampling profiler to see. `--laps N` repeats it so a
//! `WORLDS_PROF=1` run accumulates enough samples for a flamegraph
//! (see EXPERIMENTS.md).

use std::time::Instant;

use worlds::Speculation;
use worlds_apps::rootfinder::parallel::{committed_roots, parallel_find_roots};
use worlds_apps::rootfinder::{find_all_roots, legendre_like, JtConfig, TEST_ANGLES};

fn main() {
    let (poly, true_roots) = legendre_like(14);
    // A starved fixed-shift budget makes the algorithm angle-sensitive,
    // exactly the regime the paper exploits.
    let cfg = JtConfig {
        stage2_iters: 10,
        stage3_iters: 10,
        ..JtConfig::default()
    };

    println!(
        "polynomial: degree {} (clustered Legendre-like roots)",
        poly.degree()
    );
    println!("\n--- sequential, one angle at a time ---");
    for &angle in &TEST_ANGLES[..4] {
        let t0 = Instant::now();
        match find_all_roots(&poly, angle, &cfg) {
            Ok(rep) => println!(
                "angle {angle:>5.1}: ok, {} iterations, residual {:.2e}, {:?}",
                rep.iterations,
                rep.max_residual,
                t0.elapsed()
            ),
            Err(e) => println!("angle {angle:>5.1}: FAILED ({e})"),
        }
    }

    let laps: usize = std::env::args()
        .skip_while(|a| a != "--laps")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    println!("\n--- Multiple Worlds: all four angles race ---");
    let spec = Speculation::new();
    let t0 = Instant::now();
    let mut report = parallel_find_roots(&spec, &poly, &TEST_ANGLES[..4], &cfg, None);
    for _ in 1..laps {
        report = parallel_find_roots(&spec, &poly, &TEST_ANGLES[..4], &cfg, None);
    }
    let wall = t0.elapsed() / laps.max(1) as u32;

    match &report.outcome {
        worlds::RunOutcome::Winner { label, .. } => {
            let result = report.value.as_ref().expect("winner carries its roots");
            println!(
                "winner: {label} after {} iterations, wall {wall:?}",
                result.iterations
            );
            let committed = committed_roots(&spec).expect("winner committed its roots");
            println!(
                "committed {} roots; checking against the constructed ones:",
                committed.len()
            );
            let mut worst = 0.0f64;
            for r in &committed {
                let d = true_roots
                    .iter()
                    .map(|t| (*r - *t).abs())
                    .fold(f64::INFINITY, f64::min);
                worst = worst.max(d);
            }
            println!("worst distance to a true root: {worst:.2e}");
            assert!(worst < 1e-4, "roots must be genuine");
        }
        other => println!("no winner: {other:?}"),
    }

    for alt in &report.alts {
        println!("  {:<12} {:?}", alt.label, alt.status);
    }
    println!(
        "\n(the losers' speculative root cells were discarded with their worlds; \
         only the winner's survive in the committed state)"
    );

    // WORLDS_OBS=1 (and optionally WORLDS_OBS_JSONL=run.jsonl) turn on the
    // observability layer; the JSONL stream replays through `worlds-report`
    // into this same table.
    if let Some(summary) = spec.obs().summary() {
        spec.obs().flush();
        println!("\n--- worlds-obs run report ---\n{summary}");
    }
}
