//! The persistent pool: one queue, one kind of worker, one stack of
//! parked workers.
//!
//! One [`Executor`] outlives every speculation block that runs on it, so
//! the per-block cost of `alt_spawn` drops from "create an OS thread per
//! alternative" to "push a closure onto a queue". All of the pool's state
//! — the FIFO task queue, the worker counts, the parked stack, the join
//! handles — lives in one `State` behind one mutex; a task costs two
//! holds of it (submit, then completion-and-next-pickup in one), and a
//! task its submitter takes back ([`Executor::take`]) costs one.
//!
//! # Reserve-or-grow: why blocking tasks cannot starve the pool
//!
//! Speculation tasks are arbitrary closures: they sleep, wait on
//! channels, and run *nested* blocks whose parent waits for its own
//! children. A fixed pool would deadlock the moment every worker blocks
//! while the tasks that would unblock them sit queued. This pool makes a
//! stronger guarantee, enforced at submission time: **after every
//! `spawn`, queued tasks never outnumber workers not inside a task.**
//! `submit` compares the queue, new task included, with
//! `live − executing` in the same lock hold as the push; if the task
//! would break the bound it adds one worker (counted in
//! `ExecCounters::fallback_threads`). A worker becomes busy only by
//! popping a queued task and leaves only when the queue is empty, both
//! under that lock — so every queued task always has a runner reserved
//! for it, no matter what the executing tasks do. Taking a task back
//! only shortens the queue, so it keeps the bound.
//!
//! # One wake per burst; wake the worker that parked last
//!
//! A worker that finds the queue empty pushes itself onto `State::parked`
//! in that lock hold and parks. `submit` unparks one — the most recently
//! parked, popped off the stack, after the unlock — only when the queue
//! was empty: a task pushed behind others wakes nobody. Instead a worker
//! that pops a task and leaves more behind unparks the next parked
//! worker before it runs its own task, so a burst of k tasks still
//! starts k workers, but the submitter pays for one wake-up, and a task
//! its submitter takes back before a worker reaches it costs no wake-up
//! at all. No queued task is stranded: whenever the queue is non-empty,
//! at least one worker outside a task is off the stack (awake, or
//! claimed and unparked), and it looks at the queue before it can park.
//! A submission into an empty queue establishes that (it adds a worker,
//! pops one, or finds the stack empty, so every free worker is awake),
//! and a pop that leaves tasks behind keeps it (it pops the next parked
//! worker, or the stack is empty). The unpark token covers a worker
//! preempted between its push and its park. So the workers that traffic
//! really needs stay hot, and the rest sit at the bottom of the stack. A
//! worker no submission claims for `LINGER` exits iff the pool is above
//! its base count and the queue is empty: the thread count follows the
//! real concurrency of recent traffic, never drops below
//! [`Executor::workers`], and a workload that keeps more tasks in flight
//! than the base count (a block wider than the pool, connection handlers
//! parked on workers for life) pays for its extra threads once, not once
//! per block.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use worlds_obs::{env, Registry};

/// How long a surplus worker stays parked, unclaimed, before it exits.
const LINGER: Duration = Duration::from_secs(1);

/// Tasks run outside the state lock and under `catch_unwind`; the one
/// panic under it is a worker thread the OS refused to create.
const POISONED: &str = "pool state poisoned: a worker thread could not be created";

type TaskFn = Box<dyn FnOnce() + Send + 'static>;

/// A unit of work, the registry its execution is attributed to, and the
/// tag its submitter may take it back by (0: untagged).
struct Task {
    run: TaskFn,
    obs: Registry,
    tag: usize,
}

/// Everything the pool knows, under one mutex, so that pushing a task and
/// reserving its runner are one step and cannot race.
struct State {
    /// Submitted tasks no worker has taken yet, oldest first.
    queue: VecDeque<Task>,
    /// Tasks currently inside a worker (running or blocked).
    executing: usize,
    /// Workers alive: the base count plus whatever submissions added and
    /// linger has not yet retired. Always `>= executing`.
    live: usize,
    /// Workers parked (or about to park) on an empty queue, most recently
    /// parked last; one that wakes still on it was not claimed.
    parked: Vec<Thread>,
    /// One handle per live worker; a worker that retires takes its own.
    handles: Vec<JoinHandle<()>>,
    shutdown: bool,
}

/// Who will run a task about to be queued.
enum Runner {
    /// Nobody free: add a worker.
    Grow,
    /// The queue was empty: unpark this parked worker.
    Wake(Thread),
    /// A worker outside a task is already off the stack and will look at
    /// the queue before it parks.
    Awake,
}

impl State {
    fn new(workers: usize) -> State {
        State {
            queue: VecDeque::new(),
            executing: 0,
            live: 0,
            parked: Vec::with_capacity(workers),
            handles: Vec::with_capacity(workers),
            shutdown: false,
        }
    }

    /// Reserve-or-grow for one more queued task, decided before the push.
    /// The bound held before this task, so one more worker restores it;
    /// a task behind others wakes nobody, because the worker that pops
    /// the one ahead of it wakes the next.
    fn runner_for_push(&mut self) -> Runner {
        if self.queue.len() >= self.live - self.executing {
            Runner::Grow
        } else if self.queue.is_empty() {
            self.parked.pop().map_or(Runner::Awake, Runner::Wake)
        } else {
            Runner::Awake
        }
    }

    /// Remove the oldest queued task tagged `tag`.
    fn take(&mut self, tag: usize) -> Option<Task> {
        let at = self.queue.iter().position(|t| t.tag == tag)?;
        self.queue.remove(at)
    }
}

struct Inner {
    state: Mutex<State>,
    /// The base count: linger never takes `live` below it.
    workers: usize,
}

thread_local! {
    /// `Arc::as_ptr` of the pool this thread is a worker of; 0 for every
    /// other thread. Only tells inside submissions from outside ones.
    static WORKS_FOR: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A persistent executor. Cloning is a refcount bump; all clones share
/// the same workers and queue.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<Inner>,
}

impl Executor {
    /// A pool with `workers` permanent workers (at least one).
    pub fn new(workers: usize) -> Executor {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State::new(workers)),
            workers,
        });
        let mut st = inner.state.lock().expect(POISONED);
        for _ in 0..workers {
            add_worker(&inner, &mut st);
        }
        drop(st);
        Executor { inner }
    }

    /// The process-wide pool every [`Speculation`] uses by default, sized
    /// to `effective_cores` (`std::thread::available_parallelism`) unless
    /// [`env::EXEC_THREADS`] overrides it. Never shut down.
    ///
    /// [`Speculation`]: https://docs.rs/worlds
    pub fn global() -> Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Executor::new(default_workers()))
            .clone()
    }

    /// Number of permanent workers.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Submit a task. Attribution: queue-depth / run / injection counters
    /// for this task land in `obs` (`RunStats::exec`), which is free when
    /// the registry is disabled. Tasks start in submission order.
    pub fn spawn(&self, obs: &Registry, f: impl FnOnce() + Send + 'static) {
        self.spawn_tagged(obs, 0, f);
    }

    /// [`Executor::spawn`], with a nonzero `tag` that [`Executor::take`]
    /// can later withdraw the task by while no worker has started it. A
    /// speculation block tags its alternatives with one tag per block.
    pub fn spawn_tagged(&self, obs: &Registry, tag: usize, f: impl FnOnce() + Send + 'static) {
        self.submit(Task {
            run: Box::new(f),
            obs: obs.clone(),
            tag,
        });
    }

    /// Withdraw the oldest still-queued task tagged `tag` (nonzero), or
    /// `None` when every such task has been started or taken. The caller
    /// runs it or drops it; either way it is not counted in `tasks_run`.
    pub fn take(&self, tag: usize) -> Option<Box<dyn FnOnce() + Send + 'static>> {
        debug_assert_ne!(tag, 0, "untagged tasks cannot be taken back");
        let task = self.inner.state.lock().expect(POISONED).take(tag)?;
        task.obs.with(|i| i.stats.exec_queue_depth.sub(1));
        Some(task.run)
    }

    /// Run `f`, with every closure it hands to [`Scope::spawn`] allowed to
    /// borrow from the enclosing frame: `scope` does not return until all
    /// scoped tasks have finished (even if `f` panics), which is what
    /// makes the borrows sound. Scoped tasks run on the same pool and are
    /// attributed to `obs`.
    pub fn scope<'env, R>(&self, obs: &Registry, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            exec: self,
            obs,
            latch: Latch::new(),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The wait must happen on the panic path too: a scoped task may
        // still be using borrows owned by our caller's frame.
        scope.latch.wait();
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Stop every live worker and join it. Intended for tests and ordered
    /// teardown of private pools **after** the pool is quiescent; workers
    /// drain the queue before they leave, but a task submitted during or
    /// after shutdown may be dropped unrun. Must not be called from one
    /// of the pool's own workers.
    pub fn shutdown(&self) {
        let handles = {
            let mut st = self.inner.state.lock().expect(POISONED);
            st.shutdown = true;
            st.parked.drain(..).for_each(|t| t.unpark());
            std::mem::take(&mut st.handles)
        };
        let me = std::thread::current().id();
        for h in handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }

    fn submit(&self, task: Task) {
        task.obs.with(|i| {
            i.stats.exec_queue_depth.add(1);
            if WORKS_FOR.get() != Arc::as_ptr(&self.inner) as usize {
                i.stats.exec.tasks_injected.incr();
            }
        });
        let mut st = self.inner.state.lock().expect(POISONED);
        // Reserve-or-grow, in the same lock hold as the push.
        let claimed = match st.runner_for_push() {
            Runner::Grow => {
                task.obs.with(|i| i.stats.exec.fallback_threads.incr());
                add_worker(&self.inner, &mut st);
                None
            }
            Runner::Wake(worker) => Some(worker),
            Runner::Awake => None,
        };
        st.queue.push_back(task);
        drop(st);
        if let Some(worker) = claimed {
            worker.unpark();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.inner.workers)
            .finish()
    }
}

fn default_workers() -> usize {
    env::number(env::EXEC_THREADS)
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The one place a worker thread is created. The caller holds the state
/// lock, so the worker is counted in `live` and joinable through `handles`
/// before it can look at the queue.
fn add_worker(inner: &Arc<Inner>, st: &mut State) {
    st.live += 1;
    let worker = inner.clone();
    st.handles.push(
        std::thread::Builder::new()
            .name("worlds-exec".into())
            .spawn(move || worker_loop(worker))
            .expect("spawn pool worker"),
    );
}

fn worker_loop(inner: Arc<Inner>) {
    WORKS_FOR.set(Arc::as_ptr(&inner) as usize);
    let me = std::thread::current();
    // True when the last park ran its full LINGER without being claimed.
    let mut lingered = false;
    let mut st = inner.state.lock().expect(POISONED);
    loop {
        if let Some(Task { run, obs, .. }) = st.queue.pop_front() {
            st.executing += 1;
            // Tasks left behind: start the next parked worker on them
            // before this one is busy (chained wakes, see module docs).
            let next = if st.queue.is_empty() {
                None
            } else {
                st.parked.pop()
            };
            drop(st);
            if let Some(worker) = next {
                worker.unpark();
            }
            obs.with(|i| {
                i.stats.exec_queue_depth.sub(1);
                i.stats.exec.tasks_run.incr();
            });
            // Profiler marker: on-CPU in a task from here; the speculation
            // layer refines world/site/phase once it knows them. One
            // relaxed load when no sampler is attached. The matching Idle
            // mark is published on the out-of-work path below, not here:
            // between back-to-back tasks the next pickup overwrites the
            // slot anyway, and skipping the flip halves the marker tax on
            // a saturated worker.
            worlds_prof::mark(None, None, None, worlds_prof::Phase::Task);
            // A panicking task must not take its worker down with it.
            let _ = catch_unwind(AssertUnwindSafe(run));
            // Not under the lock: this may be the registry's last handle.
            drop(obs);
            st = inner.state.lock().expect(POISONED);
            st.executing -= 1;
            lingered = false;
            continue;
        }
        // The queue is empty and we hold the lock, so no submission is
        // counting on this worker: leaving now cannot strand a task, and
        // the next submission sees the reduced `live`.
        if st.shutdown || (lingered && st.live > inner.workers) {
            st.live -= 1;
            st.handles.retain(|h| h.thread().id() != me.id());
            return;
        }
        // Out of work: retire the last task's marker before blocking so
        // neither the sampler nor the stall watchdog attributes the wait
        // to a task that already finished.
        worlds_prof::mark_idle();
        st.parked.push(me.clone());
        drop(st);
        let deadline = Instant::now() + LINGER;
        std::thread::park_timeout(LINGER);
        st = inner.state.lock().expect(POISONED);
        // Still on the stack: nobody claimed this worker while it slept.
        let unclaimed = st.parked.iter().rposition(|t| t.id() == me.id());
        if let Some(i) = unclaimed {
            st.parked.remove(i);
        }
        lingered = unclaimed.is_some() && Instant::now() >= deadline;
    }
}

/// A countdown latch: one count per [`Latch::guard`] handed out, counted
/// down when the guard drops (so panics still count down); [`Latch::wait`]
/// blocks until zero. What [`Executor::scope`] joins on.
pub(crate) struct Latch {
    count: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    /// A latch at zero.
    pub fn new() -> Arc<Latch> {
        Arc::new(Latch {
            count: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    /// Count one more party in; the returned guard counts it out again.
    /// Move the guard into the task the waiter must outlast.
    pub fn guard(self: &Arc<Latch>) -> CountsDown {
        self.add(1);
        CountsDown(self.clone())
    }

    fn add(&self, n: usize) {
        *self.count.lock().unwrap() += n;
    }

    fn done(&self) {
        let mut c = self.count.lock().unwrap();
        *c -= 1;
        if *c == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until every guard handed out so far has dropped.
    pub fn wait(&self) {
        let c = self.count.lock().unwrap();
        let _unused = self.cv.wait_while(c, |c| *c > 0).unwrap();
    }
}

/// Decrements its [`Latch`] when dropped — normal return or unwind alike.
pub(crate) struct CountsDown(Arc<Latch>);

impl Drop for CountsDown {
    fn drop(&mut self) {
        self.0.done();
    }
}

/// Handle for spawning borrowing tasks inside [`Executor::scope`].
pub struct Scope<'scope, 'env> {
    exec: &'scope Executor,
    obs: &'scope Registry,
    latch: Arc<Latch>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submit a task that may borrow anything outliving the `scope` call.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        let guard = self.latch.guard();
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _guard = guard;
            f();
        });
        // SAFETY: `Executor::scope` waits for the latch to reach zero
        // before returning (on the panic path too), so everything the
        // closure borrows ('env) strictly outlives its execution; the
        // lifetime can therefore be erased for the 'static task queue.
        let task: TaskFn = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        self.exec.submit(Task {
            run: task,
            obs: self.obs.clone(),
            tag: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn tasks_run_and_pool_survives() {
        let pool = Executor::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let latch = Latch::new();
        latch.add(100);
        for _ in 0..100 {
            let hits = hits.clone();
            let guard = CountsDown(latch.clone());
            pool.spawn(&Registry::disabled(), move || {
                let _guard = guard;
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        latch.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        pool.shutdown();
    }

    #[test]
    fn blocking_tasks_never_starve_queued_work() {
        // One worker, two tasks that can only finish if they run
        // concurrently: the second must get a fallback worker.
        let pool = Executor::new(1);
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        let (tx2, rx2) = std::sync::mpsc::channel::<u32>();
        pool.spawn(&Registry::disabled(), move || {
            // Blocks until the *other* task sends.
            let v = rx2.recv().unwrap();
            tx.send(v + 1).unwrap();
        });
        pool.spawn(&Registry::disabled(), move || {
            tx2.send(41).unwrap();
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(42),
            "fallback worker must run the unblocking task"
        );
        pool.shutdown();
    }

    #[test]
    fn scope_tasks_borrow_their_environment() {
        let pool = Executor::new(2);
        let results = Mutex::new(Vec::new());
        pool.scope(&Registry::disabled(), |s| {
            for i in 0..16u64 {
                let results = &results;
                s.spawn(move || results.lock().unwrap().push(i * i));
            }
        });
        let mut got = results.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn scope_waits_even_when_body_panics() {
        let pool = Executor::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = done.clone();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(&Registry::disabled(), |s| {
                let done = done2.clone();
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(50));
                    done.fetch_add(1, Ordering::SeqCst);
                });
                panic!("body dies");
            })
        }));
        assert!(r.is_err());
        assert_eq!(
            done.load(Ordering::SeqCst),
            1,
            "scope must wait for the task before unwinding"
        );
        pool.shutdown();
    }

    #[test]
    fn panicking_task_does_not_kill_its_worker() {
        let pool = Executor::new(1);
        pool.spawn(&Registry::disabled(), || panic!("boom"));
        let (tx, rx) = std::sync::mpsc::channel::<u8>();
        pool.spawn(&Registry::disabled(), move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        pool.shutdown();
    }

    #[test]
    fn nested_scoped_tasks_all_complete() {
        // A task spawning sub-tasks runs them on the pool; all complete.
        let pool = Executor::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        pool.scope(&Registry::disabled(), |s| {
            let hits = &hits;
            let pool_ref = &pool;
            s.spawn(move || {
                pool_ref.scope(&Registry::disabled(), |inner| {
                    for _ in 0..8 {
                        inner.spawn(move || {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                hits.fetch_add(100, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 108);
        pool.shutdown();
    }

    #[test]
    fn exec_counters_account_for_every_task() {
        let obs = Registry::enabled();
        let pool = Executor::new(2);
        pool.scope(&obs, |s| {
            for _ in 0..50 {
                s.spawn(|| std::hint::black_box(()));
            }
        });
        let stats = obs.stats().unwrap();
        assert_eq!(stats.exec.tasks_run.get(), 50);
        assert_eq!(stats.exec_queue_depth.get(), 0, "all picked up");
        pool.shutdown();
    }

    #[test]
    fn throughput_smoke_pool_reuse_is_fast() {
        // Not a benchmark, just a guard: 200 trivial tasks through a
        // 1-worker pool must finish quickly (no per-task thread spawn on
        // the quiet-pool path).
        let pool = Executor::new(1);
        let t0 = Instant::now();
        for _ in 0..200 {
            pool.scope(&Registry::disabled(), |s| {
                s.spawn(|| {
                    std::hint::black_box(1u64);
                });
            });
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
        pool.shutdown();
    }

    /// The blocking pair of `blocking_tasks_never_starve_queued_work`: two
    /// tasks that only finish if they run concurrently.
    fn blocking_pair(pool: &Executor, obs: &Registry) {
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        let (tx2, rx2) = std::sync::mpsc::channel::<u32>();
        pool.spawn(obs, move || {
            let v = rx2.recv().unwrap();
            tx.send(v + 1).unwrap();
        });
        pool.spawn(obs, move || tx2.send(41).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
    }

    /// Spin until `pred` holds of the pool's state, or `within` runs out.
    fn state_reaches(pool: &Executor, within: Duration, pred: impl Fn(&State) -> bool) -> bool {
        let deadline = Instant::now() + within;
        while !pred(&pool.inner.state.lock().unwrap()) {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn grown_workers_are_reused() {
        // The second task of every pair needs a second worker. The pool
        // grows for the first pair and keeps the worker for the other 199.
        let obs = Registry::enabled();
        let pool = Executor::new(1);
        for _ in 0..200 {
            blocking_pair(&pool, &obs);
            // The pair has reported but may still be returning; a round
            // that starts on busy workers would be a wider block.
            assert!(state_reaches(&pool, Duration::from_secs(5), |st| {
                st.executing == 0
            }));
        }
        let stats = obs.stats().unwrap();
        assert_eq!(stats.exec.tasks_run.get(), 400);
        let grown = stats.exec.fallback_threads.get();
        assert!(
            (1..=2).contains(&grown),
            "200 two-wide rounds on one base worker added {grown} workers"
        );
        pool.shutdown();
    }

    #[test]
    fn surplus_workers_exit_after_linger_and_base_workers_do_not() {
        let pool = Executor::new(1);
        blocking_pair(&pool, &Registry::disabled());
        assert_eq!(pool.inner.state.lock().unwrap().live, 2, "grew by one");
        assert!(
            state_reaches(&pool, LINGER + Duration::from_secs(4), |st| st.live == 1),
            "the surplus worker never retired"
        );
        // A base worker lingers forever: another LINGER changes nothing.
        std::thread::sleep(LINGER + Duration::from_millis(200));
        {
            let st = pool.inner.state.lock().unwrap();
            assert_eq!((st.live, st.executing), (pool.workers(), 0));
            assert_eq!(st.handles.len(), 1, "the retired worker took its handle");
        }
        let (tx, rx) = std::sync::mpsc::channel::<u8>();
        pool.spawn(&Registry::disabled(), move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        pool.shutdown();
    }

    #[test]
    fn serial_traffic_retires_the_surplus() {
        // A 4-wide burst grows the pool to 4; one-at-a-time traffic then
        // needs one worker, and the stack keeps claiming the same one, so
        // the other three go unclaimed for LINGER and retire. Waking the
        // parked workers in turn would keep all four in rotation.
        let pool = Executor::new(1);
        let barrier = std::sync::Barrier::new(4);
        pool.scope(&Registry::disabled(), |s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                });
            }
        });
        assert_eq!(pool.inner.state.lock().unwrap().live, 4, "grew to 4");
        let until = Instant::now() + 3 * LINGER;
        while Instant::now() < until {
            pool.scope(&Registry::disabled(), |s| {
                s.spawn(|| std::hint::black_box(()))
            });
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.inner.state.lock().unwrap().live, 1);
        pool.shutdown();
    }

    #[test]
    fn a_burst_into_parked_workers_starts_them_all() {
        // One submission wakes one worker; each worker that pops a task
        // with more behind it wakes the next. A 4-party barrier inside
        // the tasks only opens if all four run at once.
        let obs = Registry::enabled();
        let pool = Executor::new(4);
        assert!(state_reaches(&pool, Duration::from_secs(5), |st| {
            st.parked.len() == 4
        }));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        for _ in 0..4 {
            let (barrier, tx) = (barrier.clone(), tx.clone());
            pool.spawn(&obs, move || {
                barrier.wait();
                tx.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5))
                .expect("a parked worker was never woken");
        }
        assert_eq!(obs.stats().unwrap().exec.fallback_threads.get(), 0);
        pool.shutdown();
    }

    /// A stand-in for a parked worker: only its handle is ever touched.
    fn parked_thread() -> Thread {
        std::thread::spawn(std::thread::current).join().unwrap()
    }

    fn tagged(tag: usize, ran: &Arc<Mutex<Vec<usize>>>, id: usize) -> Task {
        let ran = ran.clone();
        Task {
            run: Box::new(move || ran.lock().unwrap().push(id)),
            obs: Registry::disabled(),
            tag,
        }
    }

    #[test]
    fn a_submit_behind_queued_work_wakes_nobody() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut st = State::new(3);
        st.live = 3;
        st.parked = vec![parked_thread(), parked_thread(), parked_thread()];
        // Into an empty queue: the worker that parked last is woken.
        let last = st.parked[2].id();
        assert!(matches!(st.runner_for_push(), Runner::Wake(t) if t.id() == last));
        st.queue.push_back(tagged(0, &ran, 0));
        // Behind a queued task: nobody is woken, the stack is untouched.
        assert!(matches!(st.runner_for_push(), Runner::Awake));
        assert_eq!(st.parked.len(), 2);
        st.queue.push_back(tagged(0, &ran, 1));
        // Reserve-or-grow still counts: two free workers, two queued.
        st.executing = 1;
        assert!(matches!(st.runner_for_push(), Runner::Grow));
        assert_eq!(st.parked.len(), 2);
    }

    #[test]
    fn take_leaves_other_blocks_tasks_queued_in_fifo_order() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut st = State::new(1);
        for (id, tag) in [7, 9, 7, 0, 9].into_iter().enumerate() {
            st.queue.push_back(tagged(tag, &ran, id));
        }
        // Block 7's oldest, then its next; then none.
        (st.take(7).unwrap().run)();
        (st.take(7).unwrap().run)();
        assert!(st.take(7).is_none());
        assert_eq!(*ran.lock().unwrap(), vec![0, 2]);
        // Everything else is still queued, oldest first.
        while let Some(task) = st.queue.pop_front() {
            (task.run)();
        }
        assert_eq!(*ran.lock().unwrap(), vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn take_and_a_worker_never_both_get_a_task() {
        // Task A blocks the only worker, so B (behind A in the queue)
        // stays queued until it is taken back or A is released.
        let obs = Registry::enabled();
        let pool = Executor::new(1);
        let (started_tx, started) = std::sync::mpsc::channel::<()>();
        let (release, wait) = std::sync::mpsc::channel::<()>();
        pool.spawn(&obs, move || {
            started_tx.send(()).unwrap();
            wait.recv().unwrap();
        });
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let hits = ran.clone();
        pool.spawn_tagged(&obs, 5, move || {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        // A worker grown for B may or may not have started it; either
        // way exactly one of the take and the worker gets it.
        let taken = pool.take(5);
        release.send(()).unwrap();
        assert!(state_reaches(&pool, Duration::from_secs(5), |st| {
            st.executing == 0 && st.queue.is_empty()
        }));
        let stats = obs.stats().unwrap();
        match taken {
            Some(task) => {
                assert_eq!(ran.load(Ordering::SeqCst), 0);
                assert_eq!(stats.exec.tasks_run.get(), 1, "only A ran on a worker");
                task();
                assert_eq!(ran.load(Ordering::SeqCst), 1);
            }
            None => assert_eq!(stats.exec.tasks_run.get(), 2),
        }
        assert_eq!(stats.exec_queue_depth.get(), 0);
        assert!(pool.take(5).is_none());
        pool.shutdown();
    }

    #[test]
    fn a_chain_of_blocked_tasks_always_finishes() {
        // Task i waits on a channel only task i + 1 feeds, so every task
        // but the last blocks until all later-queued ones have started:
        // the pool must grow to the depth of the chain and strand nothing.
        const N: usize = 16;
        let pool = Executor::new(1);
        let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
        let mut feeds_previous: Option<std::sync::mpsc::Sender<()>> = None;
        for i in 0..N {
            let (feeds_me, wait) = std::sync::mpsc::channel::<()>();
            let feed = feeds_previous.replace(feeds_me);
            let done = done_tx.clone();
            pool.spawn(&Registry::disabled(), move || {
                if i < N - 1 {
                    wait.recv().unwrap();
                }
                if let Some(feed) = feed {
                    feed.send(()).unwrap();
                }
                done.send(i).unwrap();
            });
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut finished = Vec::new();
        while finished.len() < N {
            let left = deadline.saturating_duration_since(Instant::now());
            finished.push(done_rx.recv_timeout(left).expect("a task was stranded"));
        }
        finished.sort_unstable();
        assert_eq!(finished, (0..N).collect::<Vec<_>>());
        pool.shutdown();
    }
}
