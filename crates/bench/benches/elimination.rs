//! Ablation: synchronous vs asynchronous sibling elimination (§2.2.1).
//!
//! The paper: eliminating 16 subprocesses costs ~40 ms waiting vs ~20 ms
//! asynchronously. Measured here both live (real SIGKILL/waitpid via
//! `worlds-os`) and in the simulator (response-time difference of a full
//! block under each mode).

use criterion::{criterion_group, criterion_main, Criterion};
use worlds_kernel::{AltSpec, BlockSpec, CostModel, ElimMode, Machine};

fn sim_block(elim: ElimMode) -> BlockSpec {
    BlockSpec::new(
        (0..16)
            .map(|i| AltSpec::new(format!("a{i}")).compute_ms(10.0 + i as f64))
            .collect(),
    )
    .elim(elim)
    .shared_pages(0)
}

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_elimination");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_millis(900));
    g.warm_up_time(std::time::Duration::from_millis(200));
    for (name, elim) in [("sync", ElimMode::Sync), ("async", ElimMode::Async)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut m = Machine::new(CostModel::att_3b2().with_cpus(16));
                m.run_block(&sim_block(elim)).wall
            });
        });
    }
    g.finish();
}

#[cfg(unix)]
fn bench_real(c: &mut Criterion) {
    let mut g = c.benchmark_group("real_elimination_16");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.bench_function("sync_kill_and_wait", |b| {
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let (sync, _) = worlds_apps::os::measure::elimination_cost(16).expect("forks work");
                total += sync;
            }
            total
        });
    });
    g.bench_function("async_kill_only", |b| {
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let (_, asynchronous) =
                    worlds_apps::os::measure::elimination_cost(16).expect("forks work");
                total += asynchronous;
            }
            total
        });
    });
    g.finish();
}

#[cfg(not(unix))]
fn bench_real(_c: &mut Criterion) {}

criterion_group!(benches, bench_sim, bench_real);
criterion_main!(benches);
