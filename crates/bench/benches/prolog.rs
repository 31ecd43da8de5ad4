//! §4.2 application bench: sequential SLD resolution vs OR-parallel
//! committed choice on a knowledge base with divergent branch costs.
//!
//! The database is built so the *first* clause of the raced predicate
//! leads into an expensive subtree while a later clause succeeds quickly:
//! sequential program-order search pays the expensive branch first, the
//! OR-parallel race commits the quick one.

use criterion::{criterion_group, criterion_main, Criterion};
use worlds::Speculation;
use worlds_apps::prolog::{or_parallel_solve, parse_query, solve_first, Database, SolveConfig};

/// `path(a, goal)` where clause order sends sequential search into a long
/// chain first; a short chain also exists.
fn skewed_db(long: usize) -> Database {
    let mut src = String::new();
    // Expensive branch: a -> l0 -> l1 -> ... -> l<long> -> dead end.
    src.push_str("edge(a, l0).\n");
    for i in 0..long {
        src.push_str(&format!("edge(l{i}, l{}).\n", i + 1));
    }
    // Cheap branch, listed after: a -> s -> goal.
    src.push_str("edge(a, s).\nedge(s, goal).\n");
    src.push_str(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n",
    );
    Database::consult(&src).expect("valid program")
}

fn bench(c: &mut Criterion) {
    let db = skewed_db(60);
    let goals = parse_query("path(a, goal)").expect("valid query");
    let cfg = SolveConfig::default();

    let mut g = c.benchmark_group("prolog_or");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(900));
    g.warm_up_time(std::time::Duration::from_millis(200));

    g.bench_function("sequential_first_solution", |b| {
        b.iter(|| {
            let (sol, steps) = solve_first(&db, &goals, &cfg);
            assert!(sol.is_some());
            steps
        });
    });

    g.bench_function("or_parallel_committed_choice", |b| {
        b.iter(|| {
            let spec = Speculation::new();
            let out = or_parallel_solve(&spec, &db, &goals, &cfg, None);
            assert!(out.solution.is_some());
            out.steps
        });
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
