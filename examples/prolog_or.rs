//! The paper's §4.2 scenario: OR-parallel Prolog via Multiple Worlds.
//!
//! ```sh
//! cargo run --example prolog_or
//! ```
//!
//! A path query whose first clause drags sequential search through a long
//! dead-end chain; the OR-parallel race commits the short branch instead.

use std::time::Instant;

use worlds::Speculation;
use worlds_apps::prolog::{
    or_parallel_solve, parse_query, solve, solve_first, Database, SolveConfig,
};

fn main() {
    // Knowledge base: a long decoy chain listed first, a short path after.
    let mut src = String::from("% routes\nedge(a, d0).\n");
    for i in 0..80 {
        src.push_str(&format!("edge(d{i}, d{}).\n", i + 1));
    }
    src.push_str("edge(a, s).\nedge(s, goal).\n");
    src.push_str(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n",
    );
    let db = Database::consult(&src).expect("valid program");
    let goals = parse_query("path(a, goal)").expect("valid query");
    let cfg = SolveConfig::default();

    println!("database: {} clauses; query: path(a, goal)", db.len());

    // Sequential resolution explores the decoy chain first.
    let t0 = Instant::now();
    let (sol, steps) = solve_first(&db, &goals, &cfg);
    println!(
        "\nsequential: solution {:?} after {steps} resolution steps, {:?}",
        sol.is_some(),
        t0.elapsed()
    );

    // OR-parallel committed choice: the two path/2 clauses race.
    let spec = Speculation::new();
    let t0 = Instant::now();
    let out = or_parallel_solve(&spec, &db, &goals, &cfg, None);
    println!(
        "or-parallel: solution {:?} via clause #{:?} after {} steps (winner only), {:?}",
        out.solution.is_some(),
        out.winning_clause,
        out.steps,
        t0.elapsed()
    );
    println!("failed branches: {:?}", out.failed_branches);
    println!(
        "committed answer cell: {:?}",
        spec.read(|c| c.get_str("prolog_answer"))
    );

    assert!(out.solution.is_some(), "the short branch must be derivable");

    // Both agree the goal is provable; the committed-choice answer is one
    // of the sequential answers.
    let (all, _) = solve(&db, &goals, &cfg);
    assert!(!all.is_empty());
    println!(
        "\n(sequential search pays for the decoy chain before reaching the short \
         branch; the race commits whichever branch proves the goal first)"
    );
}
