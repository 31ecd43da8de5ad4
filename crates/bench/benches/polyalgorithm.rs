//! §4.3 application bench: the scalar polyalgorithm — sequential
//! likelihood-ordered attempts vs Multiple-Worlds fastest-first — on
//! problems where the preferred method diverges.

use criterion::{criterion_group, criterion_main, Criterion};
use worlds::Speculation;
use worlds_apps::poly::scalar::{standard_polyalgorithm, ScalarProblem};

/// atan from a far guess: Newton (tried first without a bracket hint)
/// diverges after scouting a bracket; bisection then finishes.
fn hostile_problem() -> ScalarProblem {
    ScalarProblem::new(|x| x.atan(), 2.0)
}

/// The classic cubic with a bracket: every method succeeds, Newton is
/// fastest.
fn friendly_problem() -> ScalarProblem {
    ScalarProblem::new(|x| x * x * x - 2.0 * x - 5.0, 2.0).bracket(2.0, 3.0)
}

fn bench(c: &mut Criterion) {
    let poly = standard_polyalgorithm();

    let mut g = c.benchmark_group("polyalgorithm");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(900));
    g.warm_up_time(std::time::Duration::from_millis(200));

    for (name, problem) in [
        ("friendly", friendly_problem()),
        ("hostile", hostile_problem()),
    ] {
        let p = problem.clone();
        g.bench_function(format!("sequential/{name}"), move |b| {
            let poly = standard_polyalgorithm();
            b.iter(|| {
                let out = poly.run_sequential(&p);
                assert!(out.solved());
                out
            });
        });
        let p = problem;
        g.bench_function(format!("fastest_first/{name}"), move |b| {
            let poly = standard_polyalgorithm();
            b.iter(|| {
                let spec = Speculation::new();
                let out = poly.run_fastest_first(&spec, &p, None);
                assert!(out.solved());
                out
            });
        });
    }
    let _ = poly;
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
