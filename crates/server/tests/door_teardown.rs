//! A dropped front door gives back every thread it started. Alone in its
//! own test binary, so no sibling test's threads move the count.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};
use worlds_exec::Executor;
use worlds_obs::Registry;
use worlds_pagestore::PageStore;
use worlds_server::{FrontDoor, ServerPolicy};

/// Threads in this process, less the global pool's workers: the pool
/// grows and retires on its own schedule (its linger rule is pinned in
/// `worlds-exec`), and a door only borrows them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|task| {
            let comm = task.as_ref().expect("task entry").path().join("comm");
            std::fs::read_to_string(comm).map_or(true, |name| name.trim() != "worlds-exec")
        })
        .count()
}

#[test]
fn dropped_doors_leave_no_threads_behind() {
    let _ = Executor::global();
    let baseline = threads();
    for _ in 0..10 {
        let door = FrontDoor::serve(
            1,
            PageStore::new(4096),
            Registry::disabled(),
            ServerPolicy::default(),
        )
        .expect("bind front door");
        drop(door);
    }
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let left = threads().saturating_sub(baseline);
        if left == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{left} threads outlived their doors"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
