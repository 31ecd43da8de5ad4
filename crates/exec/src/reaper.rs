//! The background world reaper: batched asynchronous elimination.
//!
//! Asynchronous elimination takes the loser teardown off the parent's
//! critical path — but in the thread executor each loser still paid one
//! `Recycler` lock acquisition *per freed frame* (pre-PR 3: per list),
//! and one `drop_world` call per world. The reaper amortizes both:
//! losing worlds are queued, a single background thread drains them in
//! batches, and [`PageStore::drop_worlds`] returns every freed frame to
//! the recycler under **one** lock acquisition per batch.
//!
//! Enqueuing wakes the thread only when the queue becomes non-empty or
//! reaches the batch cap, and the thread then waits out `COALESCE_WINDOW`
//! unless the batch fills: later losers join the batch instead of cutting
//! the window short. Past `BACKLOG_MAX` queued worlds an enqueuer tears
//! its own down in one `drop_worlds` call, so no caller blocks and the
//! memory queued losers hold is bounded. When the last [`Reaper`] handle
//! drops, the thread finishes the queue and exits.
//!
//! Batching is invisible to replay: `drop_worlds` emits the `frame_free`
//! events a `drop_world` loop would. Each call, per store per batch or
//! inline, counts one `ExecCounters::reaper_batches` and its worlds.

use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;
use worlds_pagestore::{PageStore, WorldId};

/// Largest number of worlds torn down per reaper wakeup.
const BATCH_MAX_DEFAULT: usize = 64;

/// How long the woken reaper waits for more losers before it reaps.
const COALESCE_WINDOW: Duration = Duration::from_micros(200);

/// Most worlds the queue holds; past it an enqueuer reaps its own. One
/// batch: two let `spec_inproc`'s peak RSS wander (CHANGES.md, PR 24).
const BACKLOG_MAX: usize = BATCH_MAX_DEFAULT;

#[derive(Default)]
struct ReapState {
    queue: Vec<(PageStore, WorldId)>,
    /// A batch is out of the queue but not yet torn down.
    reaping: bool,
    shutdown: bool,
    batches: u64,
}

struct Inner {
    state: Mutex<ReapState>,
    /// Wakes the reaper thread when work arrives (or shutdown).
    work_cv: Condvar,
    /// Wakes [`Reaper::drain`] waiters when a batch completes.
    done_cv: Condvar,
    batch_max: usize,
}

/// Handle to a background elimination thread. Cloning shares the thread;
/// dropping the last clone lets it finish the queue and exit.
#[derive(Clone)]
pub struct Reaper {
    inner: Arc<Handles>,
}

/// Shared by the handles, not the thread: its drop stops the thread.
struct Handles(Arc<Inner>);

impl std::ops::Deref for Handles {
    type Target = Inner;
    fn deref(&self) -> &Inner {
        &self.0
    }
}

impl Drop for Handles {
    fn drop(&mut self) {
        // Must not panic: a poisoned state still takes the flag.
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.work_cv.notify_one();
    }
}

impl Reaper {
    /// A private reaper with an explicit batch cap (tests, benchmarks).
    pub fn new(batch_max: usize) -> Reaper {
        let inner = Arc::new(Inner {
            state: Mutex::default(),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            batch_max: batch_max.max(1),
        });
        let thread_inner = inner.clone();
        std::thread::Builder::new()
            .name("worlds-reaper".into())
            .spawn(move || reaper_loop(thread_inner))
            .expect("spawn reaper thread");
        Reaper {
            inner: Arc::new(Handles(inner)),
        }
    }

    /// The process-wide reaper asynchronous elimination uses by default.
    pub fn global() -> Reaper {
        static GLOBAL: OnceLock<Reaper> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Reaper::new(BATCH_MAX_DEFAULT))
            .clone()
    }

    /// Queue one losing world for teardown.
    pub fn enqueue(&self, store: &PageStore, world: WorldId) {
        self.enqueue_many(store, &[world]);
    }

    /// Queue a cohort of losing worlds (one lock, at most one wakeup).
    /// Worlds past the backlog cap are torn down before this returns.
    pub fn enqueue_many(&self, store: &PageStore, worlds: &[WorldId]) {
        if worlds.is_empty() {
            return;
        }
        let mut st = self.inner.state.lock().unwrap();
        let before = st.queue.len();
        let (queued, inline) = worlds.split_at(worlds.len().min(BACKLOG_MAX - before));
        st.queue.extend(queued.iter().map(|&w| (store.clone(), w)));
        let (after, cap) = (st.queue.len(), self.inner.batch_max);
        drop(st);
        // Any other enqueue finds the thread awake or about to look.
        if before == 0 || (before < cap && after >= cap) {
            self.inner.work_cv.notify_one();
        }
        if !inline.is_empty() {
            reap(store, inline);
        }
    }

    /// Block until every world queued so far has been torn down.
    pub fn drain(&self) {
        let st = self.inner.state.lock().unwrap();
        let _done = self
            .inner
            .done_cv
            .wait_while(st, |st| !st.queue.is_empty() || st.reaping)
            .unwrap();
    }

    /// Batches the thread has completed (diagnostics; not inline ones).
    pub fn batches(&self) -> u64 {
        self.inner.state.lock().unwrap().batches
    }

    /// Stop the thread once the queue is empty, as the last drop would.
    pub fn shutdown(&self) {
        self.inner.state.lock().unwrap().shutdown = true;
        self.inner.work_cv.notify_one();
    }
}

impl std::fmt::Debug for Reaper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reaper")
            .field("batch_max", &self.inner.batch_max)
            .finish()
    }
}

/// Tear down `worlds` of `store` in one `drop_worlds` call (one recycler
/// acquisition), counted as one batch.
fn reap(store: &PageStore, worlds: &[WorldId]) {
    let dropped = store.drop_worlds(worlds);
    store.obs().with(|o| {
        o.stats.exec.reaper_batches.incr();
        o.stats.exec.reaper_worlds.add(dropped as u64);
    });
}

fn reaper_loop(inner: Arc<Inner>) {
    loop {
        let batch = {
            let st = inner.state.lock().unwrap();
            let st = inner
                .work_cv
                .wait_while(st, |st| st.queue.is_empty() && !st.shutdown)
                .unwrap();
            if st.queue.is_empty() {
                return; // shutdown with nothing left
            }
            // Linger: only a full batch or shutdown ends the window early.
            let (mut st, _) = inner
                .work_cv
                .wait_timeout_while(st, COALESCE_WINDOW, |st| {
                    st.queue.len() < inner.batch_max && !st.shutdown
                })
                .unwrap();
            let take = st.queue.len().min(inner.batch_max);
            st.reaping = true;
            st.queue.drain(..take).collect::<Vec<_>>()
        };

        // One `drop_worlds` call per run of worlds that share a store.
        worlds_prof::mark(None, None, None, worlds_prof::Phase::Reap);
        for run in batch.chunk_by(|a, b| a.0.same_store(&b.0)) {
            let ids: Vec<WorldId> = run.iter().map(|&(_, w)| w).collect();
            reap(&run[0].0, &ids);
        }

        worlds_prof::mark_idle();
        {
            let mut st = inner.state.lock().unwrap();
            st.reaping = false;
            st.batches += 1;
        }
        inner.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use worlds_obs::Registry;

    /// A store with `n` forked worlds off one root, each with a private
    /// page so teardown really frees frames.
    fn store_with_losers(n: usize) -> (PageStore, Vec<WorldId>) {
        let store = PageStore::new(4096);
        let root = store.create_world();
        store.write(root, 0, 0, &[1u8; 64]).unwrap();
        let losers: Vec<WorldId> = (0..n)
            .map(|i| {
                let w = store.fork_world(root).unwrap();
                store.write(w, 1 + i as u64, 0, &[2u8; 64]).unwrap();
                w
            })
            .collect();
        (store, losers)
    }

    #[test]
    fn queued_worlds_are_torn_down() {
        let reaper = Reaper::new(8);
        let (store, losers) = store_with_losers(6);
        assert_eq!(store.world_count(), 7);
        reaper.enqueue_many(&store, &losers);
        reaper.drain();
        assert_eq!(store.world_count(), 1, "only the root survives");
        reaper.shutdown();
    }

    #[test]
    fn refcounts_hold_after_batched_reap() {
        // The CI satellite: verify_refcounts() must hold after a
        // batched-reaper run, including batches smaller than the queue.
        let reaper = Reaper::new(4);
        let (store, losers) = store_with_losers(10);
        reaper.enqueue_many(&store, &losers);
        reaper.drain();
        let live = store
            .verify_refcounts()
            .expect("refcount invariant after batched teardown");
        assert_eq!(live, store.live_frames());
        assert_eq!(store.world_count(), 1);
        assert!(reaper.batches() >= 1);
        reaper.shutdown();
    }

    #[test]
    fn double_enqueue_and_missing_worlds_are_harmless() {
        let reaper = Reaper::new(8);
        let (store, losers) = store_with_losers(2);
        reaper.enqueue_many(&store, &losers);
        reaper.drain();
        // Same worlds again: already gone, drop_worlds skips them.
        reaper.enqueue_many(&store, &losers);
        reaper.drain();
        assert_eq!(store.world_count(), 1);
        assert!(store.verify_refcounts().is_ok());
        reaper.shutdown();
    }

    #[test]
    fn batching_amortizes_recycler_locks() {
        // Teardown of k worlds with p private frames each: batched mode
        // must acquire the recycler lock fewer times than the per-world
        // (let alone per-frame) baseline would.
        let (store, losers) = store_with_losers(8);
        let before = store.stats();
        let reaper = Reaper::new(64);
        reaper.enqueue_many(&store, &losers);
        reaper.drain();
        let delta = store.stats().delta_since(&before);
        assert_eq!(delta.worlds_dropped, 8);
        assert!(
            delta.recycler_locks < 8,
            "one batch of 8 worlds must cost fewer than 8 recycler \
             acquisitions, got {}",
            delta.recycler_locks
        );
        reaper.shutdown();
    }

    #[test]
    fn spaced_enqueues_coalesce() {
        // One loser every 20 µs: only the first of each window wakes the
        // thread, the rest join its batch instead of cutting the
        // window short.
        let reaper = Reaper::new(64);
        let (store, losers) = store_with_losers(32);
        for &w in &losers {
            reaper.enqueue(&store, w);
            let until = Instant::now() + Duration::from_micros(20);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        reaper.drain();
        assert_eq!(store.world_count(), 1);
        let batches = reaper.batches();
        assert!(batches <= 6, "32 spaced losers took {batches} batches");
    }

    #[test]
    fn a_backlogged_reaper_tears_down_inline() {
        // No thread yet: the queue fills to the cap and the enqueuer
        // reaps everything past it itself, before `enqueue` returns.
        const K: usize = 5;
        let reaper = Reaper {
            inner: Arc::new(Handles(Arc::new(Inner {
                state: Mutex::default(),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                batch_max: 64,
            }))),
        };
        let (mut store, losers) = store_with_losers(BACKLOG_MAX + K);
        let obs = Registry::enabled();
        store.set_obs(obs.clone());
        let (first, last) = losers.split_at(BACKLOG_MAX + K - 1);
        reaper.enqueue_many(&store, first);
        reaper.enqueue(&store, last[0]);
        assert_eq!(reaper.inner.state.lock().unwrap().queue.len(), BACKLOG_MAX);
        assert!(losers[..BACKLOG_MAX].iter().all(|&w| store.world_exists(w)));
        assert!(losers[BACKLOG_MAX..]
            .iter()
            .all(|&w| !store.world_exists(w)));
        store
            .verify_refcounts()
            .expect("refcounts after inline teardown");
        let exec = &obs.stats().unwrap().exec;
        assert_eq!(
            (exec.reaper_batches.get(), exec.reaper_worlds.get()),
            (2, K as u64)
        );

        // Started, the thread reaps the backlog; every world enqueued is
        // counted once, whichever path tore it down.
        let inner = reaper.inner.0.clone();
        std::thread::spawn(move || reaper_loop(inner));
        reaper.drain();
        assert_eq!(store.world_count(), 1);
        store
            .verify_refcounts()
            .expect("refcounts after the backlog");
        assert_eq!(exec.reaper_worlds.get(), (BACKLOG_MAX + K) as u64);
        assert!(exec.reaper_batches.get() > 2);
    }
}
