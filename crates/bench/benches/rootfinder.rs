//! Table I companion bench: sequential Jenkins–Traub per starting angle,
//! the robust (+94° retry) baseline, and the Multiple-Worlds thread race.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use worlds::Speculation;
use worlds_apps::rootfinder::parallel::parallel_find_roots;
use worlds_apps::rootfinder::{find_all_roots, find_all_roots_robust};
use worlds_bench::table1::TABLE1_ANGLES;
use worlds_bench::table1_workload;

fn bench(c: &mut Criterion) {
    let (poly, cfg) = table1_workload();

    let mut g = c.benchmark_group("rootfinder_sequential");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(900));
    g.warm_up_time(std::time::Duration::from_millis(200));
    for &angle in &TABLE1_ANGLES[..3] {
        g.bench_with_input(BenchmarkId::from_parameter(angle), &angle, |b, &angle| {
            b.iter(|| find_all_roots(&poly, angle, &cfg).map(|r| r.iterations));
        });
    }
    g.bench_function("robust_retry_baseline", |b| {
        b.iter(|| find_all_roots_robust(&poly, 49.0, 3, &cfg).map(|r| r.iterations));
    });
    g.finish();

    let mut g = c.benchmark_group("rootfinder_parallel");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(200));
    for &procs in &[2usize, 4] {
        g.bench_with_input(BenchmarkId::new("race", procs), &procs, |b, &procs| {
            b.iter(|| {
                let spec = Speculation::new();
                let report = parallel_find_roots(&spec, &poly, &TABLE1_ANGLES[..procs], &cfg, None);
                report.succeeded()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
