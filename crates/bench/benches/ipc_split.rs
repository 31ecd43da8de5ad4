//! Ablation: the cost of predicated message delivery (§2.4.2) — plain
//! accepts, ignores, and full receiver world-splits with COW state.

use criterion::{criterion_group, criterion_main, Criterion};
use worlds::ipc::{classify, Message, Network};
use worlds::{Pid, PredicateSet};
use worlds_kernel::SplitKernel;

fn bench_classify(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_classify");
    g.sample_size(30);
    g.measurement_time(std::time::Duration::from_millis(900));
    g.warm_up_time(std::time::Duration::from_millis(200));

    let sender = Pid(10);
    let s_set = PredicateSet::new([Pid(10)], [Pid(11)]);
    let msg = Message::new(sender, Pid(1), s_set, vec![0u8; 64]);

    let accept_r = PredicateSet::new([Pid(10)], [Pid(11)]);
    let ignore_r = PredicateSet::new([Pid(11)], [Pid(10)]);
    let split_r = PredicateSet::empty();
    for (name, r) in [
        ("accept", &accept_r),
        ("ignore", &ignore_r),
        ("split", &split_r),
    ] {
        g.bench_function(name, |b| b.iter(|| classify(r, &msg)));
    }
    g.finish();
}

fn bench_transport(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_transport");
    g.sample_size(30);
    g.measurement_time(std::time::Duration::from_millis(900));
    g.warm_up_time(std::time::Duration::from_millis(200));

    g.bench_function("send_recv_round_trip", |b| {
        let net = Network::new();
        b.iter(|| {
            net.send(Message::new(
                Pid(1),
                Pid(2),
                PredicateSet::empty(),
                vec![0u8; 64],
            ));
            net.recv(Pid(2)).expect("just sent")
        });
    });
    g.finish();
}

fn bench_world_split(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_world_split");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_millis(900));
    g.warm_up_time(std::time::Duration::from_millis(200));

    for &pages in &[10u64, 160] {
        g.bench_function(format!("split_receiver_{pages}_pages"), |b| {
            b.iter(|| {
                let mut k = SplitKernel::new(2048);
                let root = k.spawn_root();
                let observer = k.spawn_root();
                for vpn in 0..pages {
                    k.write_state(observer, vpn, &[1]);
                }
                let kids = k.alt_spawn(root, 2);
                k.send(kids[0], observer, "m");
                let out = k.deliver_next(observer);
                std::hint::black_box(out)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_classify, bench_transport, bench_world_split);
criterion_main!(benches);
