//! Regenerate **Table I**: the parallel rootfinder.
//!
//! Two tables are printed:
//!
//! 1. the virtual-time reproduction on the 2-CPU Ardent Titan cost model
//!    (the headline artifact — shape-comparable to the paper's numbers),
//! 2. a real-wall-clock race of the same angles through the `worlds`
//!    thread executor on this host (honest but host-dependent; this CI
//!    container has one CPU, so no real-time speedup is expected here).

use std::time::Instant;

use worlds::Speculation;
use worlds_apps::rootfinder::find_all_roots;
use worlds_apps::rootfinder::parallel::parallel_find_roots;
use worlds_bench::table1::TABLE1_ANGLES;
use worlds_bench::{render_table, table1_rows, table1_workload};

fn main() {
    println!("Table I reproduction: parallel Jenkins-Traub rootfinder");
    println!("(paper, 2-CPU Ardent Titan:   procs 1..6 ->");
    println!("  max 4.01 4.49 4.45 4.48 4.27 4.50");
    println!("  min 4.01 4.07 2.03 1.37 2.36 2.02");
    println!("  avg 4.01 4.28 3.50 3.31 3.35 3.65");
    println!("  fails 0 0 0 0 2 0");
    println!("  par 4.37 4.25 4.74 5.19 8.61 7.03)\n");

    println!("--- virtual time, Ardent Titan cost model (2 CPUs, 80 ms fork) ---");
    let rows = table1_rows(6);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.procs.to_string(),
                format!("{:.2}", r.max_s),
                format!("{:.2}", r.min_s),
                format!("{:.2}", r.avg_s),
                r.fails.to_string(),
                format!("{:.2}", r.par_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["procs", "max", "min", "avg", "fails", "par"], &table)
    );
    println!(
        "shape notes: par stays near min for <=2 procs (speculation beats avg),\n\
         then degrades past the CPU count — the paper's 2-CPU contention pattern.\n"
    );

    println!("--- real wall clock on this host (thread executor) ---");
    let (poly, cfg) = table1_workload();
    let mut real_rows: Vec<Vec<String>> = Vec::new();
    for procs in 1..=6usize {
        let angles = &TABLE1_ANGLES[..procs];
        // Sequential per-angle wall times.
        let mut seq: Vec<(f64, bool)> = Vec::new();
        for &a in angles {
            let t0 = Instant::now();
            let ok = find_all_roots(&poly, a, &cfg).is_ok();
            seq.push((t0.elapsed().as_secs_f64(), ok));
        }
        let ok_times: Vec<f64> = seq.iter().filter(|(_, ok)| *ok).map(|(t, _)| *t).collect();
        let fails = seq.len() - ok_times.len();
        // The parallel race.
        let spec = Speculation::new();
        let t0 = Instant::now();
        let report = parallel_find_roots(&spec, &poly, angles, &cfg, None);
        let par = t0.elapsed().as_secs_f64();
        let win = report.succeeded();
        real_rows.push(vec![
            procs.to_string(),
            format!(
                "{:.4}",
                ok_times.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            ),
            format!(
                "{:.4}",
                ok_times.iter().cloned().fold(f64::INFINITY, f64::min)
            ),
            format!(
                "{:.4}",
                ok_times.iter().sum::<f64>() / ok_times.len().max(1) as f64
            ),
            fails.to_string(),
            format!("{:.4}{}", par, if win { "" } else { "!" }),
        ]);
    }
    println!(
        "{}",
        render_table(&["procs", "max", "min", "avg", "fails", "par"], &real_rows)
    );
    println!(
        "(host has {} CPU(s); with fewer CPUs than procs the real-time par column\n\
         shows contention rather than speedup — use the virtual-time table above\n\
         for the paper's 2-CPU shape)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
}
