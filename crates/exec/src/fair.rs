//! Fair submission: per-tenant deficit round-robin in front of the pool.
//!
//! The pool itself is greedy — whoever submits first runs first — which
//! is exactly wrong once many tenants share one [`Executor`]: a tenant
//! that dumps ten thousand tasks starves everyone behind it in the
//! queue. [`FairScheduler`] sits in front of the pool and meters
//! admission instead: each tenant gets a bounded FIFO queue, and a
//! deficit round-robin pass (Shreedhar & Varghese's DRR, the classic
//! packet-scheduling discipline) releases tasks into the pool. Every
//! visit tops a tenant's deficit up by one quantum; a task of cost `c`
//! may only leave when the deficit covers `c`. Over any window, tenants
//! with pending work therefore share released cost equally, no matter
//! how unbalanced their arrival rates are.
//!
//! Two bounds make it a backpressure device as well as a fairness one:
//!
//! * a **per-tenant queue cap** — a full queue fails [`submit`]
//!   immediately with [`Saturated`], which the server layer turns into
//!   `Nack::Overloaded` (the client backs off; nothing blocks), and
//! * a **global in-flight cap** — at most `max_inflight` released tasks
//!   occupy the pool at once, so a burst never floods its queue and the
//!   DRR pass, not the pool's arrival order, decides who runs next.
//!
//! Completion is panic-safe: the released wrapper decrements the
//! in-flight count on drop, so a panicking task cannot wedge the
//! scheduler.
//!
//! [`call`] admits by the same rule with two outcomes: with a slot free,
//! the task runs on the calling thread at once (no pool hand-off, no
//! completion wake-up); otherwise it queues as [`submit`] queues and the
//! caller waits for its result. A free slot means nothing is queued
//! anywhere, so running inline releases exactly what DRR would.
//!
//! [`submit`]: FairScheduler::submit
//! [`call`]: FairScheduler::call

use crate::pool::Executor;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use worlds_obs::Registry;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Tuning knobs for a [`FairScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct FairPolicy {
    /// Deficit added per round-robin visit. Costs are caller-defined
    /// units (the server layer passes virtual nanoseconds); a tenant
    /// whose head task costs more than one quantum simply waits more
    /// visits — expensive work is amortised, never refused.
    pub quantum: u64,
    /// Per-tenant queue bound; a full queue fails `submit`.
    pub queue_cap: usize,
    /// Released tasks allowed in the pool at once.
    pub max_inflight: usize,
}

impl Default for FairPolicy {
    fn default() -> FairPolicy {
        FairPolicy {
            quantum: 1_000_000,
            queue_cap: 64,
            max_inflight: 0, // 0 = twice the executor's worker count
        }
    }
}

/// `submit` or `call` refused a task because the tenant's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saturated {
    /// The tenant whose queue was full.
    pub key: u64,
    /// The queue bound it hit.
    pub cap: usize,
}

impl fmt::Display for Saturated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant {} queue full ({} tasks)", self.key, self.cap)
    }
}

impl std::error::Error for Saturated {}

/// A tenant's scheduler-side counters, snapshotted under the lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tasks accepted (queued, or admitted inline by `call`).
    pub submitted: u64,
    /// Tasks whose released wrapper has finished (or unwound).
    pub completed: u64,
    /// Submissions refused with [`Saturated`].
    pub rejected: u64,
    /// Tasks queued, not yet released.
    pub queued: usize,
    /// Tasks released (into the pool or inline), not yet finished.
    pub inflight: usize,
}

struct Tenant {
    queue: VecDeque<(u64, Task)>,
    deficit: u64,
    in_ring: bool,
    inflight: usize,
    submitted: u64,
    completed: u64,
    rejected: u64,
}

impl Tenant {
    fn new() -> Tenant {
        Tenant {
            queue: VecDeque::new(),
            deficit: 0,
            in_ring: false,
            inflight: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
        }
    }

    fn idle(&self) -> bool {
        self.queue.is_empty() && self.inflight == 0
    }
}

struct State {
    tenants: HashMap<u64, Tenant>,
    /// Keys with queued work, in round-robin order.
    ring: VecDeque<u64>,
    inflight: usize,
}

struct Inner {
    exec: Executor,
    obs: Registry,
    quantum: u64,
    queue_cap: usize,
    max_inflight: usize,
    state: Mutex<State>,
    idle: Condvar,
}

/// See the module docs. Cloning shares the scheduler.
#[derive(Clone)]
pub struct FairScheduler {
    inner: Arc<Inner>,
}

impl FairScheduler {
    /// A scheduler releasing into `exec` under `policy`.
    pub fn new(exec: Executor, obs: Registry, policy: FairPolicy) -> FairScheduler {
        let max_inflight = if policy.max_inflight == 0 {
            exec.workers().saturating_mul(2).max(1)
        } else {
            policy.max_inflight
        };
        FairScheduler {
            inner: Arc::new(Inner {
                exec,
                obs,
                quantum: policy.quantum.max(1),
                queue_cap: policy.queue_cap.max(1),
                max_inflight,
                state: Mutex::new(State {
                    tenants: HashMap::new(),
                    ring: VecDeque::new(),
                    inflight: 0,
                }),
                idle: Condvar::new(),
            }),
        }
    }

    /// Queue `task` for tenant `key` at DRR cost `cost` (0 is treated
    /// as 1 so a flood of "free" tasks still round-robins). Fails
    /// immediately — never blocks — when the tenant's queue is full.
    pub fn submit(
        &self,
        key: u64,
        cost: u64,
        task: impl FnOnce() + Send + 'static,
    ) -> Result<(), Saturated> {
        let mut state = self.inner.state.lock().expect("fair lock");
        self.enqueue(&mut state, key, cost, Box::new(task))
    }

    /// Run `f` for tenant `key` at DRR cost `cost` and return its
    /// result: inline with a slot free, else queued and awaited.
    /// `Ok(None)` means the queued task was purged before it ran (or
    /// panicked on a pool worker); an inline panic gives the slot back
    /// and unwinds into the caller.
    pub fn call<R: Send + 'static>(
        &self,
        key: u64,
        cost: u64,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> Result<Option<R>, Saturated> {
        let mut state = self.inner.state.lock().expect("fair lock");
        // DRR-neutral: `pump` runs in the same lock hold as every
        // `submit` and every completion, and stops only at a full cap or
        // an empty ring. So a free slot means nothing is queued for any
        // tenant, and DRR would release this task now; running it here
        // overtakes nobody, and it counts against the cap like a pooled
        // task.
        if state.inflight < self.inner.max_inflight {
            state.inflight += 1;
            let tenant = state.tenants.entry(key).or_insert_with(Tenant::new);
            tenant.submitted += 1;
            tenant.inflight += 1;
            drop(state);
            let _done = DoneGuard {
                inner: self.inner.clone(),
                key,
            };
            return Ok(Some(f()));
        }
        let (tx, rx) = mpsc::channel();
        let task = Box::new(move || {
            let _ = tx.send(f());
        });
        self.enqueue(&mut state, key, cost, task)?;
        drop(state);
        Ok(rx.recv().ok())
    }

    /// `submit`'s body, under a lock the caller already holds.
    fn enqueue(&self, state: &mut State, key: u64, cost: u64, task: Task) -> Result<(), Saturated> {
        let tenant = state.tenants.entry(key).or_insert_with(Tenant::new);
        if tenant.queue.len() >= self.inner.queue_cap {
            tenant.rejected += 1;
            return Err(Saturated {
                key,
                cap: self.inner.queue_cap,
            });
        }
        tenant.submitted += 1;
        tenant.queue.push_back((cost.max(1), task));
        if !tenant.in_ring {
            tenant.in_ring = true;
            state.ring.push_back(key);
        }
        self.pump(state);
        Ok(())
    }

    /// Drop every still-queued task for `key` (released ones run to
    /// completion). Returns how many were dropped.
    pub fn purge(&self, key: u64) -> usize {
        let mut state = self.inner.state.lock().expect("fair lock");
        let Some(tenant) = state.tenants.get_mut(&key) else {
            return 0;
        };
        let dropped = tenant.queue.len();
        tenant.queue.clear();
        if tenant.in_ring {
            tenant.in_ring = false;
            state.ring.retain(|&k| k != key);
        }
        if dropped > 0 && state.tenants.get(&key).is_none_or(Tenant::idle) {
            self.inner.idle.notify_all();
        }
        dropped
    }

    /// Block until tenant `key` has nothing queued and nothing in
    /// flight (trivially true for a tenant that never submitted).
    pub fn drain(&self, key: u64) {
        let mut state = self.inner.state.lock().expect("fair lock");
        while state.tenants.get(&key).is_some_and(|t| !t.idle()) {
            state = self.inner.idle.wait(state).expect("fair lock");
        }
    }

    /// The tenant's counters right now.
    pub fn stats(&self, key: u64) -> TenantStats {
        let state = self.inner.state.lock().expect("fair lock");
        match state.tenants.get(&key) {
            None => TenantStats::default(),
            Some(t) => TenantStats {
                submitted: t.submitted,
                completed: t.completed,
                rejected: t.rejected,
                queued: t.queue.len(),
                inflight: t.inflight,
            },
        }
    }

    /// Forget an idle tenant's bookkeeping entirely. No-op (returning
    /// `false`) while it still has queued or in-flight work.
    pub fn forget(&self, key: u64) -> bool {
        let mut state = self.inner.state.lock().expect("fair lock");
        if state.tenants.get(&key).is_some_and(|t| !t.idle()) {
            return false;
        }
        state.tenants.remove(&key).is_some()
    }

    /// One DRR pass: release queued tasks into the pool until the
    /// in-flight cap is hit or every queue is empty. Called with the
    /// lock held from `submit` and from task completion.
    fn pump(&self, state: &mut State) {
        while state.inflight < self.inner.max_inflight {
            let Some(&key) = state.ring.front() else {
                break;
            };
            let quantum = self.inner.quantum;
            let max_inflight = self.inner.max_inflight;
            let tenant = state.tenants.get_mut(&key).expect("ring key exists");
            tenant.deficit = tenant.deficit.saturating_add(quantum);
            let mut released: Vec<Task> = Vec::new();
            while state.inflight + released.len() < max_inflight {
                let Some(&(cost, _)) = tenant.queue.front() else {
                    break;
                };
                if tenant.deficit < cost {
                    break;
                }
                let (cost, task) = tenant.queue.pop_front().expect("front exists");
                tenant.deficit -= cost;
                released.push(task);
            }
            tenant.inflight += released.len();
            if tenant.queue.is_empty() {
                // An empty queue leaves the ring and forfeits its
                // deficit — classic DRR, so an idle tenant cannot bank
                // credit and burst past the others later.
                tenant.deficit = 0;
                tenant.in_ring = false;
                state.ring.pop_front();
            } else {
                // Still backlogged: move to the back of the ring so the
                // next visit serves someone else.
                state.ring.rotate_left(1);
            }
            state.inflight += released.len();
            for task in released {
                let inner = self.inner.clone();
                let obs = self.inner.obs.clone();
                self.inner.exec.spawn(&obs, move || {
                    // Completion bookkeeping on drop, so a panicking
                    // task still gives its in-flight slot back.
                    let _done = DoneGuard { inner, key };
                    task();
                });
            }
        }
    }
}

struct DoneGuard {
    inner: Arc<Inner>,
    key: u64,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("fair lock");
        state.inflight -= 1;
        if let Some(tenant) = state.tenants.get_mut(&self.key) {
            tenant.inflight -= 1;
            tenant.completed += 1;
        }
        let sched = FairScheduler {
            inner: self.inner.clone(),
        };
        sched.pump(&mut state);
        if state.tenants.get(&self.key).is_none_or(Tenant::idle) {
            self.inner.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn counting_task(log: &Arc<Mutex<Vec<u64>>>, key: u64) -> impl FnOnce() + Send + 'static {
        let log = log.clone();
        move || {
            std::thread::sleep(Duration::from_micros(200));
            log.lock().unwrap().push(key);
        }
    }

    #[test]
    fn hog_cannot_starve_a_light_tenant() {
        let exec = Executor::new(2);
        let fair = FairScheduler::new(
            exec.clone(),
            Registry::disabled(),
            FairPolicy {
                quantum: 1,
                queue_cap: 1024,
                max_inflight: 2,
            },
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        // The hog floods first; the mouse trickles in afterwards.
        for _ in 0..200 {
            fair.submit(1, 1, counting_task(&log, 1)).unwrap();
        }
        for _ in 0..10 {
            fair.submit(2, 1, counting_task(&log, 2)).unwrap();
        }
        fair.drain(2);
        let order = log.lock().unwrap().clone();
        let mouse_done = order
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k == 2)
            .map(|(i, _)| i)
            .max()
            .expect("mouse ran");
        let hog_before = order[..=mouse_done].iter().filter(|&&k| k == 1).count();
        // Round-robin means the mouse's 10 tasks complete alongside
        // roughly 10 hog tasks, not after the hog's entire backlog.
        assert!(
            hog_before < 100,
            "mouse finished after {hog_before} of 200 hog tasks — starved"
        );
        fair.drain(1);
        assert_eq!(fair.stats(1).completed, 200);
        assert_eq!(fair.stats(2).completed, 10);
        exec.shutdown();
    }

    #[test]
    fn full_queue_saturates_instead_of_blocking() {
        let exec = Executor::new(1);
        let fair = FairScheduler::new(
            exec.clone(),
            Registry::disabled(),
            FairPolicy {
                quantum: 1,
                queue_cap: 2,
                max_inflight: 1,
            },
        );
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let blocker = {
            let gate = gate.clone();
            move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }
        };
        // One in flight (held at the gate) + two queued = full.
        fair.submit(7, 1, blocker).unwrap();
        fair.submit(7, 1, || {}).unwrap();
        fair.submit(7, 1, || {}).unwrap();
        let err = fair.submit(7, 1, || {}).unwrap_err();
        assert_eq!(err, Saturated { key: 7, cap: 2 });
        assert_eq!(fair.stats(7).rejected, 1);
        // Another tenant is unaffected by 7's saturation.
        fair.submit(8, 1, || {}).unwrap();
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        fair.drain(7);
        fair.drain(8);
        assert_eq!(fair.stats(7).completed, 3);
        assert_eq!(fair.stats(8).completed, 1);
        exec.shutdown();
    }

    #[test]
    fn purge_drops_queued_work_and_drain_returns() {
        let exec = Executor::new(1);
        let fair = FairScheduler::new(
            exec.clone(),
            Registry::disabled(),
            FairPolicy {
                quantum: 1,
                queue_cap: 64,
                max_inflight: 1,
            },
        );
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let ran = Arc::new(AtomicU64::new(0));
        {
            let gate = gate.clone();
            fair.submit(3, 1, move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        }
        for _ in 0..5 {
            let ran = ran.clone();
            fair.submit(3, 1, move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(fair.purge(3), 5, "all queued tasks dropped");
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        fair.drain(3);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "purged tasks never ran");
        assert_eq!(fair.stats(3).completed, 1, "only the in-flight blocker");
        assert!(fair.forget(3));
        assert_eq!(fair.stats(3), TenantStats::default());
        exec.shutdown();
    }

    #[test]
    fn costly_tasks_wait_more_visits_but_run() {
        let exec = Executor::new(1);
        let fair = FairScheduler::new(
            exec.clone(),
            Registry::disabled(),
            FairPolicy {
                quantum: 10,
                queue_cap: 8,
                max_inflight: 1,
            },
        );
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        // Cost far above one quantum: served only once the deficit
        // accumulates across visits.
        fair.submit(1, 95, move || {
            r.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        fair.drain(1);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        exec.shutdown();
    }

    type Gate = Arc<(Mutex<bool>, Condvar)>;

    fn gated(gate: &Gate) -> impl FnOnce() + Send + 'static {
        let gate = gate.clone();
        move || {
            let (lock, cv) = &*gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
    }

    fn open(gate: &Gate) {
        let (lock, cv) = &**gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One slot, held by a gated task of tenant 1.
    fn one_slot_taken() -> (Executor, FairScheduler, Gate) {
        let exec = Executor::new(1);
        let fair = FairScheduler::new(
            exec.clone(),
            Registry::disabled(),
            FairPolicy {
                quantum: 1,
                queue_cap: 8,
                max_inflight: 1,
            },
        );
        let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
        fair.submit(1, 1, gated(&gate)).unwrap();
        (exec, fair, gate)
    }

    #[test]
    fn an_admitted_call_runs_on_the_callers_thread() {
        let exec = Executor::new(1);
        let fair = FairScheduler::new(exec.clone(), Registry::disabled(), FairPolicy::default());
        let me = std::thread::current().id();
        let ran_on = fair.call(5, 1, || std::thread::current().id()).unwrap();
        assert_eq!(ran_on, Some(me), "a free slot runs the call inline");
        let stats = fair.stats(5);
        assert_eq!(stats.submitted, stats.completed);
        assert_eq!((stats.submitted, stats.inflight, stats.queued), (1, 0, 0));
        exec.shutdown();
    }

    #[test]
    fn a_call_queues_behind_a_full_cap_and_returns_once_it_runs() {
        let (exec, fair, gate) = one_slot_taken();
        let caller = {
            let fair = fair.clone();
            std::thread::spawn(move || fair.call(9, 1, || 42u32))
        };
        wait_until("the call queues", || fair.stats(9).queued == 1);
        assert_eq!(fair.stats(9).completed, 0);
        open(&gate);
        assert_eq!(caller.join().unwrap(), Ok(Some(42)));
        assert_eq!(fair.stats(9).completed, 1);
        exec.shutdown();
    }

    #[test]
    fn a_purged_call_returns_none() {
        let (exec, fair, gate) = one_slot_taken();
        let ran = Arc::new(AtomicU64::new(0));
        let caller = {
            let (fair, ran) = (fair.clone(), ran.clone());
            std::thread::spawn(move || {
                fair.call(9, 1, move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            })
        };
        wait_until("the call queues", || fair.stats(9).queued == 1);
        assert_eq!(fair.purge(9), 1);
        assert_eq!(caller.join().unwrap(), Ok(None));
        open(&gate);
        fair.drain(1);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "the purged call never ran");
        exec.shutdown();
    }

    #[test]
    fn an_inline_call_never_overtakes_a_queued_task() {
        let (exec, fair, gate) = one_slot_taken();
        let log = Arc::new(Mutex::new(Vec::new()));
        // The hog's second task waits in the ring behind the full cap.
        let hog_log = log.clone();
        fair.submit(1, 1, move || hog_log.lock().unwrap().push(1u64))
            .unwrap();
        let caller = {
            let (fair, log) = (fair.clone(), log.clone());
            std::thread::spawn(move || fair.call(2, 1, move || log.lock().unwrap().push(2)))
        };
        wait_until("the second tenant queues", || fair.stats(2).queued == 1);
        assert!(
            log.lock().unwrap().is_empty(),
            "nothing ran before a slot freed"
        );
        open(&gate);
        assert_eq!(caller.join().unwrap(), Ok(Some(())));
        assert_eq!(
            *log.lock().unwrap(),
            vec![1, 2],
            "DRR order, not call order"
        );
        exec.shutdown();
    }

    #[test]
    fn a_panicking_inline_call_gives_its_slot_back() {
        let exec = Executor::new(1);
        let fair = FairScheduler::new(
            exec.clone(),
            Registry::disabled(),
            FairPolicy {
                quantum: 1,
                queue_cap: 8,
                max_inflight: 1,
            },
        );
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fair.call(4, 1, || -> u32 { panic!("alternative blew up") })
        }));
        assert!(unwound.is_err(), "the panic reaches the caller");
        let stats = fair.stats(4);
        assert_eq!((stats.inflight, stats.completed), (0, 1));
        let me = std::thread::current().id();
        let ran_on = fair.call(4, 1, || std::thread::current().id()).unwrap();
        assert_eq!(
            ran_on,
            Some(me),
            "the slot came back, so the next call is inline"
        );
        exec.shutdown();
    }
}
