//! Regenerate the **§3.4 measured-overheads** table: fork latency,
//! COW page-copy service rate, write fraction, sibling elimination.
//!
//! Three columns per quantity: the paper's 1989 measurement, the value of
//! our calibrated simulator cost model (which is what the virtual-time
//! experiments charge), and — on Unix — a live measurement of the real
//! kernel on this host via `worlds-os`.

use worlds_bench::render_table;
use worlds_kernel::CostModel;
use worlds_pagestore::PageStore;

fn main() {
    println!("Section 3.4 reproduction: measured overheads\n");

    let m3b2 = CostModel::att_3b2();
    let mhp = CostModel::hp9000_350();

    // --- live measurements (real kernel) ---
    #[cfg(unix)]
    let (fork_ms, rate_2k, rate_4k, elim) = {
        let fork = worlds_apps::os::measure::fork_latency(320 * 1024, 20)
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(f64::NAN);
        let r2 = worlds_apps::os::measure::page_copy_rate(512, 2048).unwrap_or(f64::NAN);
        let r4 = worlds_apps::os::measure::page_copy_rate(512, 4096).unwrap_or(f64::NAN);
        let el = worlds_apps::os::measure::elimination_cost_best_of(16, 5).ok();
        (fork, r2, r4, el)
    };
    #[cfg(not(unix))]
    let (fork_ms, rate_2k, rate_4k, elim): (
        f64,
        f64,
        f64,
        Option<(std::time::Duration, std::time::Duration)>,
    ) = (f64::NAN, f64::NAN, f64::NAN, None);

    let (elim_sync_ms, elim_async_ms) = elim
        .map(|(s, a)| (s.as_secs_f64() * 1e3, a.as_secs_f64() * 1e3))
        .unwrap_or((f64::NAN, f64::NAN));

    let rows = vec![
        vec![
            "fork(), 320 KB address space".into(),
            "31 ms (3B2) / 12 ms (HP)".into(),
            format!("{:.0} ms / {:.0} ms", m3b2.fork.as_ms(), mhp.fork.as_ms()),
            format!("{fork_ms:.3} ms"),
        ],
        vec![
            "page-copy service rate (2K pages)".into(),
            "326 pages/s (3B2)".into(),
            format!("{:.0} pages/s", m3b2.page_copy_rate()),
            format!("{rate_2k:.0} pages/s"),
        ],
        vec![
            "page-copy service rate (4K pages)".into(),
            "1034 pages/s (HP)".into(),
            format!("{:.0} pages/s", mhp.page_copy_rate()),
            format!("{rate_4k:.0} pages/s"),
        ],
        vec![
            "eliminate 16 children, sync".into(),
            "~40 ms".into(),
            format!("{:.0} ms", m3b2.elim_sync.as_ms() * 16.0),
            format!("{elim_sync_ms:.3} ms"),
        ],
        vec![
            "eliminate 16 children, async".into(),
            "~20 ms".into(),
            format!("{:.0} ms", m3b2.elim_async.as_ms() * 16.0),
            format!("{elim_async_ms:.3} ms"),
        ],
        vec![
            "rfork (remote), 70 KB process".into(),
            "~1 s (1.3 s observed)".into(),
            format!("{:.1} s", CostModel::rfork_lan().fork.as_secs()),
            "n/a (modelled only)".into(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "quantity",
                "paper (1989)",
                "simulator model",
                "this host (live)"
            ],
            &rows
        )
    );

    // --- write fraction: the user-level pagestore measuring the paper's
    // 0.2-0.5 band directly ---
    println!("write fraction (pages COW-copied / pages inherited), user-level store:");
    let store = PageStore::new(2048);
    let parent = store.create_world();
    let total_pages = 160u64; // 320 KB at 2 KiB pages
    for vpn in 0..total_pages {
        store
            .write(parent, vpn, 0, &[1])
            .expect("parent world live");
    }
    let mut wf_rows = Vec::new();
    for touched in [32u64, 48, 64, 80] {
        let child = store.fork_world(parent).expect("parent live");
        for vpn in 0..touched {
            store.write(child, vpn, 0, &[2]).expect("child live");
        }
        let ws = store.world_stats(child).expect("child live");
        wf_rows.push(vec![
            format!("{touched}/{total_pages} pages touched"),
            format!("{:.2}", ws.write_fraction().unwrap_or(f64::NAN)),
            format!("{} pages copied", ws.pages_cowed),
        ]);
        store.drop_world(child).expect("child live");
    }
    println!(
        "{}",
        render_table(
            &["child behaviour", "write fraction", "COW traffic"],
            &wf_rows
        )
    );
    println!("(the paper observed write fractions between 0.2 and 0.5 — the 32..80 page rows)");

    // --- this host, as a simulator cost model ---
    #[cfg(unix)]
    {
        use worlds_kernel::{AltSpec, BlockSpec, Machine};
        match worlds_bench::measured::calibrated_cost_model() {
            Ok(model) => {
                println!("\nthis host as a calibrated cost model:");
                println!(
                    "  {} | {} CPU(s) | fork {} | page copy {:.0} pages/s",
                    model.name,
                    model.cpus,
                    model.fork,
                    model.page_copy_rate()
                );
                // The Table I block shape, re-run with today's costs on a
                // 2-CPU machine (matching the Titan's CPU count so the
                // comparison isolates the speculation machinery, not CPU
                // contention — this container has 1 CPU).
                let block = BlockSpec::new(vec![
                    AltSpec::new("angle-a").compute_ms(4010.0).write_pages(40),
                    AltSpec::new("angle-b").compute_ms(4490.0).write_pages(40),
                ])
                .shared_pages(160);
                let mut m = Machine::new(model.with_cpus(2));
                let report = m.run_block(&block);
                println!(
                    "  Table I's 2-angle race, this host's costs on 2 CPUs: par = {:.4} s",
                    report.wall.as_secs()
                );
                println!(
                    "  speculation overhead today: {:.3} ms vs the Titan's ~110 ms",
                    report.t_overhead().map(|t| t.as_ms()).unwrap_or(f64::NAN)
                );
            }
            Err(e) => println!("(could not calibrate this host: {e})"),
        }
    }
}
