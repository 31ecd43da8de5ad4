//! `mw` — the Multiple Worlds command-line demonstrator.
//!
//! ```text
//! mw race <ms>...              race sleep-alternatives; fastest commits
//! mw prolog <file> <query>     consult a program, answer a query OR-parallel
//! mw roots <degree> [angles]   race Jenkins–Traub starting angles
//! mw model <r_mu> <r_o>        evaluate PI = Rμ/(1+Ro)
//! mw sim <machine> <ms>...     run an alt block on a simulated 1989 machine
//!                              (machines: 3b2, hp, titan, rfork, modern)
//! mw trace <machine> <ms>...   same, printing the execution history
//! ```
//!
//! Exit code 0 on a committed result, 1 on failure, 2 on usage errors.

use std::process::ExitCode;
use std::time::Duration;

use multiple_worlds::worlds::{AltBlock, ElimMode, Speculation};
use multiple_worlds::worlds_analysis::PerfModel;
use multiple_worlds::worlds_apps::prolog;
use multiple_worlds::worlds_apps::rootfinder;
use multiple_worlds::worlds_kernel::{AltSpec, BlockSpec, CostModel, Machine};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mw race <ms>...\n  mw prolog <file> <query>\n  mw roots <degree> [angle...]\n  \
         mw model <r_mu> <r_o>\n  mw sim <3b2|hp|titan|rfork|modern> <ms>...\n  \
         mw trace <3b2|hp|titan|rfork|modern> <ms>..."
    );
    ExitCode::from(2)
}

fn machine(name: &str) -> Option<CostModel> {
    Some(match name {
        "3b2" => CostModel::att_3b2(),
        "hp" => CostModel::hp9000_350(),
        "titan" => CostModel::ardent_titan(),
        "rfork" => CostModel::rfork_lan(),
        "modern" => CostModel::modern(8),
        _ => return None,
    })
}

fn cmd_race(args: &[String]) -> ExitCode {
    let Ok(durations): Result<Vec<u64>, _> = args.iter().map(|a| a.parse()).collect() else {
        return usage();
    };
    if durations.is_empty() {
        return usage();
    }
    let spec = Speculation::new();
    let mut block: AltBlock<u64> = AltBlock::new().elim(ElimMode::Sync);
    for (i, &ms) in durations.iter().enumerate() {
        block = block.alt(format!("sleep-{ms}ms"), move |ctx| {
            let step = 5u64;
            let mut slept = 0;
            while slept < ms {
                std::thread::sleep(Duration::from_millis(step.min(ms - slept)));
                slept += step;
                ctx.checkpoint()?;
            }
            ctx.put_u64("winner_ms", ms)?;
            ctx.print(format!("alternative {i} ({ms} ms) reporting"));
            Ok(ms)
        });
    }
    let report = spec.run(block);
    print!("{}", report.render());
    for line in &report.committed_output {
        println!("output : {line}");
    }
    if report.succeeded() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_prolog(args: &[String]) -> ExitCode {
    let [file, query] = args else { return usage() };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mw: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let db = match prolog::Database::consult(&src) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("mw: {e}");
            return ExitCode::from(2);
        }
    };
    let goals = match prolog::parse_query(query) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("mw: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Speculation::new();
    let out = prolog::or_parallel_solve(&spec, &db, &goals, &prolog::SolveConfig::default(), None);
    match out.solution {
        Some(b) if b.is_empty() => {
            println!("true.");
            ExitCode::SUCCESS
        }
        Some(b) => {
            for (v, t) in &b {
                println!("{v} = {t}");
            }
            ExitCode::SUCCESS
        }
        None => {
            println!("false.");
            ExitCode::FAILURE
        }
    }
}

fn cmd_roots(args: &[String]) -> ExitCode {
    let Some((deg, rest)) = args.split_first() else {
        return usage();
    };
    let Ok(degree): Result<usize, _> = deg.parse() else {
        return usage();
    };
    if degree == 0 || degree > 40 {
        eprintln!("mw: degree must be in 1..=40");
        return ExitCode::from(2);
    }
    let angles: Vec<f64> = if rest.is_empty() {
        rootfinder::TEST_ANGLES[..4].to_vec()
    } else {
        match rest.iter().map(|a| a.parse()).collect() {
            Ok(v) => v,
            Err(_) => return usage(),
        }
    };
    let (poly, _) = rootfinder::legendre_like(degree);
    let spec = Speculation::new();
    let report = rootfinder::parallel::parallel_find_roots(
        &spec,
        &poly,
        &angles,
        &rootfinder::JtConfig::default(),
        Some(Duration::from_secs(60)),
    );
    match report.value {
        Some(result) => {
            println!(
                "winner: angle {} after {} iterations",
                result.angle, result.iterations
            );
            for r in &result.roots {
                println!("  {r}");
            }
            ExitCode::SUCCESS
        }
        None => {
            println!("no angle converged: {:?}", report.outcome);
            ExitCode::FAILURE
        }
    }
}

fn cmd_model(args: &[String]) -> ExitCode {
    let [r_mu, r_o] = args else { return usage() };
    let (Ok(r_mu), Ok(r_o)): (Result<f64, _>, Result<f64, _>) = (r_mu.parse(), r_o.parse()) else {
        return usage();
    };
    if !(r_mu.is_finite() && r_mu >= 0.0 && r_o.is_finite() && r_o >= 0.0) {
        eprintln!("mw: r_mu and r_o must be finite and non-negative (got {r_mu}, {r_o})");
        return ExitCode::from(2);
    }
    let m = PerfModel::new(r_mu, r_o);
    println!(
        "PI = {:.4}  ({})",
        m.pi(),
        if m.wins() {
            "speculation wins"
        } else {
            "loses"
        }
    );
    println!(
        "break-even R_mu at this overhead: {:.4}",
        m.break_even_r_mu()
    );
    println!(
        "overhead budget at this dispersion: {:.4}",
        m.break_even_r_o()
    );
    ExitCode::SUCCESS
}

fn cmd_sim(args: &[String], traced: bool) -> ExitCode {
    let Some((name, rest)) = args.split_first() else {
        return usage();
    };
    let Some(cost) = machine(name) else {
        return usage();
    };
    let Ok(durations): Result<Vec<f64>, _> = rest.iter().map(|a| a.parse()).collect() else {
        return usage();
    };
    if durations.is_empty() {
        return usage();
    }
    let block = BlockSpec::new(
        durations
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                AltSpec::new(format!("alt{i}"))
                    .compute_ms(ms)
                    .write_pages(20)
            })
            .collect(),
    );
    let mut m = Machine::new(cost);
    let (report, trace) = m.run_block_traced(&block);
    println!(
        "machine: {} ({} CPU(s), fork {})",
        m.cost().name,
        m.cost().cpus,
        m.cost().fork
    );
    println!("outcome: {:?}", report.outcome);
    println!("wall:    {}", report.wall);
    if let (Some(mean), Some(pi)) = (report.t_mean(), report.pi()) {
        println!("t_mean:  {}   PI = {:.3}", mean, pi);
    }
    if traced {
        println!("\nexecution history:\n{}", trace.render());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "race" => cmd_race(rest),
        "prolog" => cmd_prolog(rest),
        "roots" => cmd_roots(rest),
        "model" => cmd_model(rest),
        "sim" => cmd_sim(rest, false),
        "trace" => cmd_sim(rest, true),
        _ => usage(),
    }
}
