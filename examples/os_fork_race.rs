//! The real thing: alternatives as `fork(2)`ed processes with kernel COW,
//! pipe rendezvous, and SIGKILL sibling elimination (Unix only).
//!
//! ```sh
//! cargo run --example os_fork_race
//! ```
//!
//! This is the execution vehicle the paper actually measured in §3.4; the
//! example also reprints this host's fork/COW numbers next to the 1989
//! ones.

#[cfg(unix)]
fn main() {
    use std::time::{Duration, Instant};
    use worlds_apps::os::{measure, ForkAlt, ForkElim, ForkOutcome, ForkRace};

    // Shared read-only input, inherited COW by every child.
    let input: Vec<u64> = (0..200_000).collect();
    let ptr = input.as_ptr() as usize;
    let len = input.len();

    let spin = |ms: u64| {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(ms) {
            std::hint::spin_loop();
        }
    };

    let race = ForkRace::new(vec![
        ForkAlt::new("slow-sum", move |buf| {
            // Deliberately slow path over the inherited pages.
            spin(400);
            let xs = unsafe { std::slice::from_raw_parts(ptr as *const u64, len) };
            let mut acc = 0u64;
            for &x in xs {
                acc = acc.wrapping_add(x);
            }
            buf[..8].copy_from_slice(&acc.to_le_bytes());
            Ok(8)
        }),
        ForkAlt::new("closed-form", move |buf| {
            let n = len as u64;
            let acc = n * (n - 1) / 2;
            buf[..8].copy_from_slice(&acc.to_le_bytes());
            Ok(8)
        }),
        ForkAlt::new("guard-fails", |_| Err(())),
    ])
    .timeout(Duration::from_secs(5))
    .elim(ForkElim::Sync);

    let t0 = Instant::now();
    let report = race.run().expect("fork race runs");
    let wall = t0.elapsed();

    match &report.outcome {
        ForkOutcome::Winner { label, payload, .. } => {
            let v = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            println!("winner: {label}, value {v}, wall {wall:?}");
            assert_eq!(v, (len as u64) * (len as u64 - 1) / 2);
            assert_eq!(label, "closed-form");
        }
        other => panic!("expected a winner, got {other:?}"),
    }
    println!("(the slow child was SIGKILLed; its COW pages evaporated with it)\n");

    // Reprint this host's §3.4 numbers.
    let fork = measure::fork_latency(320 * 1024, 20).expect("fork works");
    let r2 = measure::page_copy_rate(512, 2048).expect("pipe works");
    let r4 = measure::page_copy_rate(512, 4096).expect("pipe works");
    let (sync, asynchronous) = measure::elimination_cost(16).expect("forks work");
    println!("this host vs the paper's 1989 machines:");
    println!("  fork (320 KB dirty):      {fork:>12.3?}   (3B2: 31 ms, HP: 12 ms)");
    println!("  2K page-copy rate:        {r2:>9.0} p/s   (3B2: 326 p/s)");
    println!("  4K page-copy rate:        {r4:>9.0} p/s   (HP: 1034 p/s)");
    println!("  eliminate 16, sync:       {sync:>12.3?}   (paper: ~40 ms)");
    println!("  eliminate 16, async:      {asynchronous:>12.3?}   (paper: ~20 ms)");
}

#[cfg(not(unix))]
fn main() {
    println!("the fork(2) backend is Unix-only; see examples/quickstart.rs for the portable API");
}
