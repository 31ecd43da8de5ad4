//! Concurrency stress: interleaved `fork_world` / `write` / `drop_world`
//! from many threads while a verifier repeatedly checks the refcount
//! invariant (sum of per-world frame references == resident frames).
//!
//! The sharded store's correctness argument rests on that invariant holding
//! at every point where all shard locks can be taken for reading — frames
//! are only allocated or released inside commit sections, so the verifier
//! can never observe a half-transferred frame.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use worlds_pagestore::PageStore;

const PAGE: usize = 256;
const THREADS: usize = 6;
const ITERS: usize = 120;
const ROOT_PAGES: u64 = 16;

#[test]
fn refcount_invariant_under_interleaved_fork_write_drop() {
    let store = PageStore::new(PAGE);
    // Content dedupe widens what the verifier checks: every content-index
    // entry must point at a live frame, with re-shares folded into the
    // same refcount balance. Running the stress with the index hot is the
    // point — an index entry left behind by a freed frame fails the run.
    store.set_dedupe(true);
    let root = store.create_world();
    for vpn in 0..ROOT_PAGES {
        store.write(root, vpn, 0, &[0xA5, vpn as u8]).unwrap();
    }

    let running = Arc::new(AtomicBool::new(true));

    // Verifier thread: snapshot the whole store under all shard read locks
    // while the workers churn, asserting the invariant live, not just at
    // quiescence.
    let verifier = {
        let store = store.clone();
        let running = Arc::clone(&running);
        thread::spawn(move || {
            let mut checks = 0u32;
            while running.load(Ordering::Relaxed) {
                // verify_refcounts holds every shard read lock while it
                // compares map entries, frame refs and the live counter, so
                // a clean result here is a true point-in-time invariant.
                store
                    .verify_refcounts()
                    .expect("refcount invariant violated mid-run");
                checks += 1;
                thread::sleep(Duration::from_micros(200));
            }
            checks
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = store.clone();
            thread::spawn(move || {
                for i in 0..ITERS {
                    // Fork a lineage off the shared root, CoW-fault a few of
                    // its pages, sometimes fork a grandchild too, then tear
                    // the lineage down in varying order.
                    let child = store.fork_world(root).unwrap();
                    for vpn in 0..4 {
                        let vpn = (t as u64 + vpn) % ROOT_PAGES;
                        store.write(child, vpn, 1, &[i as u8]).unwrap();
                    }
                    if i % 3 == 0 {
                        let grand = store.fork_world(child).unwrap();
                        store
                            .write(grand, t as u64 % ROOT_PAGES, 2, &[i as u8])
                            .unwrap();
                        // Fresh page private to the grandchild (zero-fill path).
                        store
                            .write(grand, ROOT_PAGES + t as u64, 0, &[i as u8])
                            .unwrap();
                        if i % 2 == 0 {
                            store.drop_world(grand).unwrap();
                            store.drop_world(child).unwrap();
                        } else {
                            store.drop_world(child).unwrap();
                            store.drop_world(grand).unwrap();
                        }
                    } else {
                        store.drop_world(child).unwrap();
                    }
                }
            })
        })
        .collect();

    for w in workers {
        w.join().expect("worker thread panicked");
    }
    running.store(false, Ordering::Relaxed);
    let checks = verifier.join().expect("verifier thread panicked");
    assert!(checks > 0, "verifier never ran");

    // Quiescent end state: only the root remains, holding exactly its own
    // pages, and the invariant still balances.
    assert_eq!(store.world_count(), 1);
    let live = store.verify_refcounts().unwrap();
    assert_eq!(live, store.live_frames());
    assert_eq!(live, store.mapped_pages(root).unwrap());
    for vpn in 0..ROOT_PAGES {
        assert_eq!(
            store.read_vec(root, vpn, 0, 2).unwrap(),
            vec![0xA5, vpn as u8]
        );
    }

    store.drop_world(root).unwrap();
    assert_eq!(store.live_frames(), 0, "all frames reclaimed at the end");
}

/// Lost-update regression: a CoW commit staged from a stale snapshot must
/// never be installed over an in-place write that landed while the frame
/// was briefly private. The dangerous interleaving is: writer A probes a
/// shared frame and stages a copy; a sibling drop makes the frame private;
/// writer B commits in place; a fork re-shares the frame; A's commit then
/// sees refs > 1 again and — without the generation bump in `fork_world` —
/// would install its pre-B copy, silently discarding B's write. The churn
/// thread below manufactures exactly that share/unshare flapping while two
/// writers own disjoint regions of one page, so any committed write that
/// later vanishes is a rolled-back commit, not writer interference.
#[test]
fn concurrent_writers_never_lose_committed_writes() {
    lost_update_stress(false);
}

/// The same interleaving with the content index hot: dedupe probes raise
/// refcounts from *outside* the owning shard's lock, so "refs == 1" can
/// flip to shared between a probe and its commit — the in-place
/// generation bump and the under-mutex privacy recheck are what this
/// variant exercises.
#[test]
fn concurrent_writers_never_lose_committed_writes_with_dedupe() {
    lost_update_stress(true);
}

fn lost_update_stress(dedupe: bool) {
    const WRITERS: usize = 2;
    const REGION: usize = 8;
    const ROUNDS: u8 = 200;

    let store = PageStore::new(PAGE);
    store.set_dedupe(dedupe);
    let root = store.create_world();
    store.write(root, 0, 0, &[0u8; REGION * WRITERS]).unwrap();

    let running = Arc::new(AtomicBool::new(true));

    // Flip the page between shared (forces the probe/stage/commit path)
    // and private (enables in-place writes) as fast as possible.
    let churn = {
        let store = store.clone();
        let running = Arc::clone(&running);
        thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                let child = store.fork_world(root).unwrap();
                store.drop_world(child).unwrap();
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let store = store.clone();
            thread::spawn(move || {
                let offset = t * REGION;
                for i in 1..=ROUNDS {
                    let val = [i; REGION];
                    store.write(root, 0, offset, &val).unwrap();
                    // This region belongs to this thread alone: once the
                    // write returns, nothing may roll it back until our
                    // own next write.
                    let got = store.read_vec(root, 0, offset, REGION).unwrap();
                    assert_eq!(got, val, "writer {t}'s committed write was lost");
                }
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer thread panicked");
    }
    running.store(false, Ordering::Relaxed);
    churn.join().expect("churn thread panicked");
    store
        .verify_refcounts()
        .expect("refcount invariant violated");
}

/// A parent forked in a loop while its children — round-robin ids put them
/// in other shards — path-copy and release the very leaves each fork
/// re-shares. Leaf handles are let go concurrently from different shard
/// locks, so this is the test of "exactly one releaser drops the slot
/// references": a double release underflows a frame count (the table
/// asserts), a missed one leaves frames live at the end. The parent writes
/// too, so its own leaves are copied out from under the children.
#[test]
fn forks_race_path_copies_and_drops_of_shared_leaves() {
    use std::sync::Barrier;

    const PAGES: u64 = 96; // a few leaves, all of them contended
    const WORKERS: usize = 5;
    const ROUNDS: usize = 400;

    let store = PageStore::new(PAGE);
    let root = store.create_world();
    for vpn in 0..PAGES {
        store.write(root, vpn, 0, &[0xC3, vpn as u8]).unwrap();
    }
    let baseline = store.live_frames();
    let running = Arc::new(AtomicBool::new(true));
    // Everyone starts together, so forks, copies and drops overlap from
    // the first round.
    let start = Arc::new(Barrier::new(WORKERS + 2));

    // Fork the parent as fast as possible; each fork makes every leaf
    // shared again, each drop lets all of them go.
    let forker = {
        let (store, running, start) = (store.clone(), running.clone(), start.clone());
        thread::spawn(move || {
            start.wait();
            let mut forks = 0u32;
            while running.load(Ordering::Relaxed) {
                let child = store.fork_world(root).unwrap();
                assert_eq!(store.read_vec(child, 5, 0, 1).unwrap(), vec![0xC3]);
                store.drop_world(child).unwrap();
                forks += 1;
            }
            forks
        })
    };

    // The parent's own writer: bytes 8.. of every page belong to it.
    let parent_writer = {
        let (store, start) = (store.clone(), start.clone());
        thread::spawn(move || {
            start.wait();
            for i in 0..ROUNDS {
                let vpn = (i as u64 * 7) % PAGES;
                store.write(root, vpn, 8, &[i as u8; 4]).unwrap();
                assert_eq!(store.read_vec(root, vpn, 8, 4).unwrap(), vec![i as u8; 4]);
            }
        })
    };

    let workers: Vec<_> = (0..WORKERS)
        .map(|t| {
            let (store, start) = (store.clone(), start.clone());
            thread::spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    let child = store.fork_world(root).unwrap();
                    // Six writes striding across every leaf: each copies a
                    // leaf other children and the forker hold right now.
                    let vpns: Vec<u64> = (0..6)
                        .map(|k| (t as u64 + k * 17 + i as u64) % PAGES)
                        .collect();
                    for &vpn in &vpns {
                        store.write(child, vpn, 2, &[t as u8, i as u8]).unwrap();
                    }
                    let grand = (i % 2 == 0).then(|| {
                        let g = store.fork_world(child).unwrap();
                        store.write(g, vpns[0], 4, &[0xAA]).unwrap();
                        g
                    });
                    // Every committed write stays readable, whoever else
                    // copied or released the leaf it sits in meanwhile.
                    for &vpn in &vpns {
                        let got = store.read_vec(child, vpn, 0, 4).unwrap();
                        assert_eq!(got, vec![0xC3, vpn as u8, t as u8, i as u8]);
                    }
                    match grand {
                        Some(g) if i % 4 == 0 => {
                            store.drop_world(child).unwrap();
                            assert_eq!(
                                store.read_vec(g, vpns[0], 2, 3).unwrap(),
                                vec![t as u8, i as u8, 0xAA]
                            );
                            store.drop_world(g).unwrap();
                        }
                        Some(g) => assert_eq!(store.drop_worlds(&[g, child]), 2),
                        None => store.drop_world(child).unwrap(),
                    }
                }
            })
        })
        .collect();

    for w in workers {
        w.join().expect("worker thread panicked");
    }
    parent_writer.join().expect("parent writer panicked");
    running.store(false, Ordering::Relaxed);
    assert!(forker.join().expect("forker thread panicked") > 0);

    assert_eq!(store.world_count(), 1);
    assert_eq!(store.verify_refcounts().unwrap(), baseline);
    assert_eq!(store.live_frames(), baseline, "every copy was released");
    for vpn in 0..PAGES {
        assert_eq!(
            store.read_vec(root, vpn, 0, 2).unwrap(),
            vec![0xC3, vpn as u8],
            "children's writes never reach the parent"
        );
    }
    // 7 is coprime to PAGES, so the last PAGES rounds of the parent's
    // writer each wrote a different page, and wrote it last.
    for i in ROUNDS - PAGES as usize..ROUNDS {
        let vpn = (i as u64 * 7) % PAGES;
        let got = store.read_vec(root, vpn, 8, 4).unwrap();
        assert_eq!(got, vec![i as u8; 4], "the parent's own writes survive");
    }
}

/// Two writers whose worlds hash to one shard, so every write of either
/// waits on the other's lock: each CoW-faults, then rewrites in place,
/// every page of its own child while a reader walks the parent and a
/// verifier takes every shard lock. Neither child may see the other's
/// bytes, the parent none of theirs, and every copy must come back.
#[test]
fn same_shard_writers_stay_isolated() {
    const PAGES: u64 = 64;
    const ROUNDS: usize = 20;

    let store = PageStore::new(PAGE);
    let root = store.create_world();
    for vpn in 0..PAGES {
        store.write(root, vpn, 0, &[0x5A, vpn as u8]).unwrap();
    }
    let baseline = store.live_frames();
    let running = Arc::new(AtomicBool::new(true));

    let reader = {
        let (store, running) = (store.clone(), running.clone());
        thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                for vpn in 0..PAGES {
                    let got = store.read_vec(root, vpn, 0, 3).unwrap();
                    assert_eq!(got, vec![0x5A, vpn as u8, 0], "a child's write leaked");
                }
            }
        })
    };
    let verifier = {
        let (store, running) = (store.clone(), running.clone());
        thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                store
                    .verify_refcounts()
                    .expect("refcount invariant violated mid-run");
                thread::sleep(Duration::from_micros(200));
            }
        })
    };

    for round in 0..ROUNDS {
        // Ids are handed out in order, so the first and last of
        // shard_count + 1 consecutive forks share a shard.
        let forks: Vec<_> = (0..=store.shard_count())
            .map(|_| store.fork_world(root).unwrap())
            .collect();
        let pair = [forks[0], forks[store.shard_count()]];
        assert_eq!(pair[1].raw() - pair[0].raw(), store.shard_count() as u64);
        store.drop_worlds(&forks[1..store.shard_count()]);

        let writers: Vec<_> = pair
            .into_iter()
            .enumerate()
            .map(|(t, child)| {
                let store = store.clone();
                thread::spawn(move || {
                    let tag = [t as u8 + 1, round as u8];
                    for vpn in 0..PAGES {
                        store.write(child, vpn, 2, &[tag[0]]).unwrap();
                    }
                    for vpn in 0..PAGES {
                        store.write(child, vpn, 3, &[tag[1]]).unwrap();
                    }
                    for vpn in 0..PAGES {
                        let got = store.read_vec(child, vpn, 0, 4).unwrap();
                        assert_eq!(got, vec![0x5A, vpn as u8, tag[0], tag[1]]);
                    }
                    assert_eq!(store.world_stats(child).unwrap().pages_cowed, PAGES);
                    store.drop_world(child).unwrap();
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer thread panicked");
        }
    }
    running.store(false, Ordering::Relaxed);
    reader.join().expect("reader thread panicked");
    verifier.join().expect("verifier thread panicked");

    assert_eq!(store.world_count(), 1);
    assert_eq!(store.verify_refcounts().unwrap(), baseline);
    assert_eq!(store.live_frames(), baseline, "every copy was released");
}
