//! §3.4 fork/COW costs, live: real `fork(2)` latency at the paper's
//! 320 KB configuration, the user-level page store's fork, and COW fault
//! costs at both 1989 page sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use worlds_pagestore::PageStore;

fn bench_user_level(c: &mut Criterion) {
    let mut g = c.benchmark_group("pagestore");
    g.sample_size(30);
    g.measurement_time(std::time::Duration::from_millis(900));
    g.warm_up_time(std::time::Duration::from_millis(200));

    // Page-map-only fork of a 320 KB world (160 2K pages).
    g.bench_function("fork_world_160_pages", |b| {
        let store = PageStore::new(2048);
        let parent = store.create_world();
        for vpn in 0..160 {
            store.write(parent, vpn, 0, &[1]).expect("parent live");
        }
        b.iter(|| {
            let child = store.fork_world(parent).expect("parent live");
            store.drop_world(child).expect("child live");
        });
    });

    // COW fault cost per page at the two paper page sizes.
    for &page in &[2048usize, 4096] {
        g.bench_with_input(BenchmarkId::new("cow_fault", page), &page, |b, &page| {
            let store = PageStore::new(page);
            let parent = store.create_world();
            store.write(parent, 0, 0, &[1]).expect("parent live");
            b.iter(|| {
                let child = store.fork_world(parent).expect("parent live");
                store.write(child, 0, 0, &[2]).expect("child live"); // one fault
                store.drop_world(child).expect("child live");
            });
        });
    }
    g.finish();
}

#[cfg(unix)]
fn bench_real_fork(c: &mut Criterion) {
    let mut g = c.benchmark_group("real_fork");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.bench_function("fork_320KB_dirty", |b| {
        b.iter_custom(|iters| {
            let d = worlds_apps::os::measure::fork_latency(320 * 1024, iters as usize)
                .expect("fork works");
            d * iters as u32
        });
    });
    g.finish();
}

#[cfg(not(unix))]
fn bench_real_fork(_c: &mut Criterion) {}

criterion_group!(benches, bench_user_level, bench_real_fork);
criterion_main!(benches);
