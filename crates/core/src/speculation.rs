//! The speculation session and its pooled executor.
//!
//! A [`Speculation`] plays the role of the paper's parent process plus
//! kernel: it owns the single-level store (all sink state), the teletype
//! (source state), and a root world. [`Speculation::run`] is
//! `alt_spawn(n)` + `alt_wait(TIMEOUT)`:
//!
//! 1. every alternative gets a fresh pid, sibling-rivalry predicates, and a
//!    COW fork of the root world. All but the first spawned one run as
//!    tasks on a persistent pool ([`worlds_exec::Executor`]) shared by
//!    every block — see [`ExecMode`] for the thread-per-alternative
//!    ablation mode — and the first runs on the calling thread, which
//!    would otherwise only block in `alt_wait`. The block cannot return
//!    before that alternative returns or reaches a cancellation point,
//!    so if it never polls it delays a sibling's commit and overruns
//!    `TIMEOUT`; a pooled alternative that never polls delays nothing;
//! 2. the parent then waits; the **first** alternative to report success
//!    wins the rendezvous, whichever thread it ran on — "`alt_wait()` is
//!    an 'at most once' operation for any group of child processes"
//!    (§2.2.1). A report sent before the block's `TIMEOUT` counts however
//!    late the parent reads it; one sent after it times the block out;
//! 3. the winner's world is adopted into the root world (atomic page-map
//!    replacement) and its buffered teletype output becomes observable;
//! 4. the siblings are eliminated: cancelled cooperatively (observed at
//!    checkpoint and page-write boundaries) and their worlds torn down —
//!    already-finished losers in one batched [`PageStore::drop_worlds`]
//!    call ([`ElimMode::Sync`]) or handed to the background
//!    [`worlds_exec::Reaper`] ([`ElimMode::Async`], the paper's faster
//!    choice); still-running losers dispose of themselves when they reach
//!    their sync point, and queued ones that start cancelled skip their
//!    body. Cancellation does not wait for the decision: any
//!    success raises the block's [`CancelToken`], and the token of a
//!    timed block reads cancelled from its deadline on, so the parent's
//!    own alternative stops for a sibling's win or the timeout too.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use worlds_exec::{Executor, Latch, Reaper};
use worlds_ipc::{SourceDevice, Teletype};
use worlds_obs::{Event as ObsEvent, EventKind, Registry, TraceCtx};
use worlds_pagestore::{FileSystem, PageStore, WorldId, PAGE_SIZE_DEFAULT};
use worlds_predicate::{Pid, PredicateSet};

use crate::block::{AltBlock, ElimMode};
use crate::ctx::{CancelToken, WorldCtx};
use crate::error::AltError;
use crate::report::{AltRun, AltRunStatus, RunOutcome, RunReport};

/// How a [`Speculation`] dispatches its alternatives.
#[derive(Clone, Debug)]
pub enum ExecMode {
    /// Run all alternatives but the first as tasks on a persistent pool,
    /// and the first on the calling thread. The default is the process-wide
    /// [`Executor::global`]; sessions can be pinned to a private pool with
    /// [`Speculation::with_executor`].
    Pooled(Executor),
    /// Spawn one OS thread per alternative but the first, which runs on
    /// the calling thread: N−1 threads plus the caller, the pre-pool
    /// behaviour kept as the ablation baseline for `bench-exec`.
    ThreadPerAlt,
}

/// A speculation session: persistent state plus the block executor.
pub struct Speculation {
    store: PageStore,
    fs: FileSystem,
    tty: Teletype,
    root_world: WorldId,
    root_pid: Pid,
    exec: ExecMode,
}

impl Clone for Speculation {
    fn clone(&self) -> Self {
        // A clone shares the same store/files/teletype/root world — it is
        // another handle on the same session, which is what lets an
        // alternative closure capture one and run *nested* blocks against
        // its own world via [`Speculation::run_in`].
        Speculation {
            store: self.store.clone(),
            fs: self.fs.clone(),
            tty: self.tty.clone(),
            root_world: self.root_world,
            root_pid: self.root_pid,
            exec: self.exec.clone(),
        }
    }
}

impl Default for Speculation {
    fn default() -> Self {
        Speculation::new()
    }
}

/// What each child task reports back at its synchronization attempt.
struct ChildReport<T> {
    index: usize,
    result: Result<T, AltError>,
    world: WorldId,
    output: Vec<String>,
    elapsed: Duration,
}

/// The elimination handshake between the parent and its child tasks,
/// replacing the per-child verdict channels of the thread-per-alternative
/// executor. A loser's world is torn down by whichever side learns the
/// outcome *last*: children finishing before the decision park their
/// world in `finished` for the parent to dispose **in one batch**;
/// children finishing after it see `decided` and dispose of their own
/// world (off the parent's critical path).
struct ElimShared {
    decided: bool,
    /// The winner's (pre-adoption) world id, if any.
    winner: Option<WorldId>,
    /// Worlds of children that reached their sync point before the
    /// parent decided the block.
    finished: Vec<WorldId>,
}

impl Speculation {
    /// A session with a default (4 KiB) page size.
    pub fn new() -> Self {
        Speculation::with_page_size(PAGE_SIZE_DEFAULT)
    }

    /// A session with an explicit page size (the paper's machines used
    /// 2 KiB and 4 KiB). Observability comes from the environment
    /// ([`Registry::from_env`]): unset means a disabled, zero-cost
    /// registry.
    pub fn with_page_size(page_size: usize) -> Self {
        Speculation::with_obs(page_size, Registry::from_env())
    }

    /// A session with an explicit observability registry; the page store
    /// and every block executed through [`Speculation::run`] report into
    /// it.
    ///
    /// `WORLDS_DEDUPE=1` arms the store's content index
    /// ([`PageStore::set_dedupe`]), the same environment-switch idiom
    /// as `WORLDS_OBS`/`WORLDS_PROF`.
    pub fn with_obs(page_size: usize, obs: Registry) -> Self {
        // WORLDS_PROF=1 gets a sampler without bespoke wiring: the first
        // session's registry receives the flushes.
        worlds_prof::autostart_from_env(&obs);
        let store = PageStore::with_obs(page_size, obs);
        if std::env::var_os("WORLDS_DEDUPE").is_some_and(|v| v != "0") {
            store.set_dedupe(true);
        }
        let root_world = store.create_world();
        let fs = FileSystem::new(store.clone());
        Speculation {
            store,
            fs,
            tty: Teletype::new(),
            root_world,
            root_pid: Pid::fresh(),
            exec: ExecMode::Pooled(Executor::global()),
        }
    }

    /// A session **rooted at an existing world of an existing store** —
    /// the run-as-session constructor the multi-tenant front door
    /// (`worlds-server`) builds on. Unlike [`Speculation::with_obs`],
    /// nothing is created: the returned session is a view whose root is
    /// `root`, so many sessions can share one store (and one executor,
    /// one reaper) while each speculates against its own root world.
    /// The caller keeps ownership of the world's lifecycle — dropping
    /// the `Speculation` does not drop `root`.
    ///
    /// The view starts with a fresh, empty file-name table (directory
    /// metadata is per-`FileSystem`, not in the store's pages); keep one
    /// view alive per session, or share a directory across views with
    /// [`Speculation::with_fs`].
    pub fn in_store(store: &PageStore, root: WorldId) -> Self {
        let store = store.clone();
        let fs = FileSystem::new(store.clone());
        Speculation {
            store,
            fs,
            tty: Teletype::new(),
            root_world: root,
            root_pid: Pid::fresh(),
            exec: ExecMode::Pooled(Executor::global()),
        }
    }

    /// This session's root world.
    pub fn root_world(&self) -> WorldId {
        self.root_world
    }

    /// The session's file system (named state cells ride on it). Clone
    /// it into [`Speculation::with_fs`] to share one directory across
    /// several session views.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Use `fs` (and its name table) instead of a fresh one — the
    /// directory-sharing half of [`Speculation::in_store`]. The file
    /// system must wrap the same store ([`PageStore::same_store`]).
    pub fn with_fs(mut self, fs: FileSystem) -> Self {
        assert!(
            fs.store().same_store(&self.store),
            "FileSystem wraps a different PageStore"
        );
        self.fs = fs;
        self
    }

    /// Pin this session to a private pool instead of the
    /// process-wide [`Executor::global`].
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = ExecMode::Pooled(exec);
        self
    }

    /// Dispatch one OS thread per alternative (the pre-pool executor),
    /// for ablation measurements.
    pub fn with_thread_per_alt(mut self) -> Self {
        self.exec = ExecMode::ThreadPerAlt;
        self
    }

    /// How this session dispatches alternatives.
    pub fn exec_mode(&self) -> &ExecMode {
        &self.exec
    }

    /// The session's page store (for stats and diagnostics).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The session's observability registry (disabled unless configured).
    pub fn obs(&self) -> &Registry {
        self.store.obs()
    }

    /// The session teletype: only committed output ever appears here.
    pub fn tty(&self) -> &Teletype {
        &self.tty
    }

    /// Run non-speculative code against the root world (initialise shared
    /// state before a block). Output prints immediately — the root runs
    /// under no assumptions.
    pub fn setup<R>(
        &self,
        f: impl FnOnce(&mut WorldCtx) -> Result<R, AltError>,
    ) -> Result<R, AltError> {
        let mut ctx = WorldCtx::new(
            self.fs.clone(),
            self.root_world,
            self.root_pid,
            PredicateSet::empty(),
            CancelToken::new(),
            self.root_trace(),
        );
        let r = f(&mut ctx)?;
        for line in &ctx.output {
            self.tty
                .emit(&PredicateSet::empty(), line.as_bytes())
                .expect("root world is resolved");
        }
        Ok(r)
    }

    /// Read the committed state (the root world's current view).
    pub fn read<R>(&self, f: impl FnOnce(&WorldCtx) -> R) -> R {
        let ctx = WorldCtx::new(
            self.fs.clone(),
            self.root_world,
            self.root_pid,
            PredicateSet::empty(),
            CancelToken::new(),
            self.root_trace(),
        );
        f(&ctx)
    }

    /// The root world's trace context (root causes itself).
    fn root_trace(&self) -> TraceCtx {
        TraceCtx {
            root: self.root_world.raw(),
            world: self.root_world.raw(),
        }
    }

    /// Execute an alternative block: run every alternative concurrently in
    /// its own world, commit at most one.
    pub fn run<T: Send + 'static>(&self, block: AltBlock<T>) -> RunReport<T> {
        self.run_in(self.root_world, &PredicateSet::empty(), block)
    }

    /// Execute a block **nested inside an existing world**: alternatives
    /// fork from `parent_world`, inherit `parent_preds` ("the predicates
    /// of a 'child' process consist of those of the 'parent'; this allows
    /// for nesting and potentially complex dependencies", §2.3), and the
    /// winner commits into `parent_world`.
    ///
    /// An alternative closure nests by capturing a clone of the session
    /// and calling this with its own [`WorldCtx::world_id`] /
    /// [`WorldCtx::predicates`]. When `parent_preds` is unresolved (a
    /// speculative caller), the winner's output is **not** released to
    /// the teletype — it is returned in
    /// [`RunReport::committed_output`] for the caller to re-buffer into
    /// its own context.
    pub fn run_in<T: Send + 'static>(
        &self,
        parent_world: WorldId,
        parent_preds: &PredicateSet,
        block: AltBlock<T>,
    ) -> RunReport<T> {
        let n = block.alts.len();
        let start = Instant::now();
        let stats_before = self.store.stats();
        // Real threads have no discrete-event clock: virtual time is wall
        // time since the registry was enabled. The store clock is advanced
        // at every parent-side step so COW events carry sane stamps.
        let obs = self.store.obs().clone();
        let obs_on = obs.is_enabled();
        if obs_on {
            self.store.set_clock_ns(obs.now_ns());
        }

        if n == 0 {
            return RunReport {
                outcome: RunOutcome::AllFailed,
                value: None,
                wall: start.elapsed(),
                alts: Vec::new(),
                store_delta: self.store.stats().delta_since(&stats_before),
                committed_output: Vec::new(),
            };
        }

        let site = block.site.map(|s| s.0);
        if let Some(s) = block.site {
            // Captures must be renderable in other processes: the label
            // behind this interned id rides the stream once.
            obs.announce_site(s);
        }
        let deadline = block.timeout.map(|t| start + t);
        let cancel = CancelToken::with_deadline(deadline);
        let (report_tx, report_rx) = mpsc::channel::<ChildReport<T>>();
        let shared = Arc::new(Mutex::new(ElimShared {
            decided: false,
            winner: None,
            finished: Vec::new(),
        }));
        let latch = Latch::new();
        let reaper = Reaper::global();

        // Pids first: sibling-rivalry predicates need the whole cohort.
        let pids: Vec<Pid> = (0..n).map(|_| Pid::fresh()).collect();

        let mut labels: Vec<String> = Vec::with_capacity(n);
        let mut skipped: Vec<bool> = Vec::with_capacity(n);
        let mut child_worlds: Vec<Option<WorldId>> = Vec::with_capacity(n);
        // The first spawned alternative's task, run on this thread once
        // its siblings are submitted.
        let mut own_task = None;
        for (i, alt) in block.alts.into_iter().enumerate() {
            labels.push(alt.label.clone());
            // Pre-spawn guards run serially in the parent; failing
            // alternatives never get a world or a task.
            if let Some(g) = &alt.pre_spawn_guard {
                let guard_start = Instant::now();
                if !g() {
                    skipped.push(true);
                    child_worlds.push(None);
                    obs.emit(|| {
                        ObsEvent::new(
                            EventKind::GuardVerdict {
                                pass: false,
                                duration_ns: guard_start.elapsed().as_nanos() as u64,
                                alt: Some(i as u64),
                                site,
                            },
                            parent_world.raw(),
                            None,
                            obs.now_ns(),
                        )
                    });
                    continue;
                }
            }
            skipped.push(false);
            let world = self
                .store
                .fork_world(parent_world)
                .expect("parent world is live");
            child_worlds.push(Some(world));
            obs.emit(|| {
                ObsEvent::new(
                    EventKind::Spawn { alt: i as u64 },
                    world.raw(),
                    Some(parent_world.raw()),
                    obs.now_ns(),
                )
            });
            let preds = PredicateSet::for_spawned_child(parent_preds, pids[i], &pids);
            let trace = TraceCtx {
                root: self.root_world.raw(),
                world: world.raw(),
            };
            let fs = self.fs.clone();
            let store = self.store.clone();
            let cancel = cancel.clone();
            let tx = report_tx.clone();
            let shared = shared.clone();
            let reaper = reaper.clone();
            let elim = block.elim;
            let pid = pids[i];
            let child_start = start;
            let counts_down = latch.guard();

            let task = move || {
                // Declared after the latch guard, so disposal (a local
                // drop) happens before the parent is released.
                let _counts_down = counts_down;
                // A task that starts after a sibling succeeded, the block
                // was decided or its deadline passed cannot win: it
                // reports itself cancelled and disposes of its world below
                // without running its body.
                let (result, output) = if cancel.is_cancelled() {
                    (Err(AltError::Cancelled), Vec::new())
                } else {
                    // Refine the executor's bare `Task` marker: this thread
                    // is now a specific alternative in a specific world.
                    worlds_prof::mark(
                        Some(world.raw()),
                        site,
                        Some(i as u64),
                        worlds_prof::Phase::Guard,
                    );
                    let mut ctx = WorldCtx::new(fs, world, pid, preds, cancel.clone(), trace);
                    let result = alt.execute(&mut ctx);
                    (result, std::mem::take(&mut ctx.output))
                };
                let succeeded = result.is_ok();
                let _ = tx.send(ChildReport {
                    index: i,
                    result,
                    world,
                    output,
                    elapsed: child_start.elapsed(),
                });
                // A success eliminates: the siblings, the parent's own
                // alternative among them, stop at their next cancellation
                // point instead of waiting for the parent to decide.
                if succeeded {
                    cancel.cancel();
                }
                // Elimination handshake: if the parent has already decided
                // the block, this world's fate is known — a loser tears it
                // down right here, off the parent's critical path (queued
                // to the batching reaper in async mode). Otherwise park it
                // for the parent's batched disposal at decision time.
                let mut st = shared.lock().unwrap();
                if st.decided {
                    let lost = st.winner != Some(world);
                    drop(st);
                    if lost && store.world_exists(world) {
                        match elim {
                            ElimMode::Sync => {
                                let _ = store.drop_world(world);
                            }
                            ElimMode::Async => reaper.enqueue(&store, world),
                        }
                    }
                } else {
                    st.finished.push(world);
                }
            };
            if own_task.is_none() {
                own_task = Some(task);
                continue;
            }
            match &self.exec {
                ExecMode::Pooled(exec) => exec.spawn(&obs, task),
                ExecMode::ThreadPerAlt => {
                    std::thread::spawn(task);
                }
            }
        }
        drop(report_tx);

        let mut alt_runs: Vec<AltRun> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| AltRun {
                label: l.clone(),
                status: if skipped[i] {
                    AltRunStatus::Failed("pre-spawn guard failed; never spawned".into())
                } else {
                    AltRunStatus::StillRunning
                },
                reported_after: None,
                pages_dirtied: None,
            })
            .collect();

        let spawned_count = skipped.iter().filter(|&&s| !s).count();
        if spawned_count == 0 {
            // Every alternative was rejected before spawning.
            cancel.cancel();
            return RunReport {
                outcome: RunOutcome::AllFailed,
                value: None,
                wall: start.elapsed(),
                alts: alt_runs,
                store_delta: self.store.stats().delta_since(&stats_before),
                committed_output: Vec::new(),
            };
        }

        let mut outcome = RunOutcome::AllFailed;
        let mut value: Option<T> = None;
        let mut committed_output: Vec<String> = Vec::new();
        let mut reported = 0usize;

        // A nested caller's own (Guard) marker is put back at the end.
        let outer_mark = worlds_prof::current_mark();
        // Help first: the siblings are queued, so rather than park in
        // alt_wait this thread runs the first alternative itself, exactly
        // as a pool worker would — a panic fails the alternative, not the block.
        if let Some(task) = own_task {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        }
        // From here the parent is off-CPU by intent while the rest race.
        worlds_prof::mark(
            Some(parent_world.raw()),
            site,
            None,
            worlds_prof::Phase::Wait,
        );

        // alt_wait(TIMEOUT): wait for the first success, a full set of
        // failures, or the deadline. The channel is polled before the
        // deadline is: the parent may look late, having just run an
        // alternative, and a report's own send time decides whether it
        // beat the deadline.
        loop {
            let msg = match deadline {
                Some(d) => {
                    match report_rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                        Ok(m) => m,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            outcome = RunOutcome::TimedOut;
                            break;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match report_rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                },
            };

            reported += 1;
            let i = msg.index;
            alt_runs[i].reported_after = Some(msg.elapsed);
            alt_runs[i].pages_dirtied = self
                .store
                .world_stats(msg.world)
                .ok()
                .map(|s| s.pages_cowed + s.pages_zero_filled);
            if obs_on {
                self.store.set_clock_ns(obs.now_ns());
                let pass = msg.result.is_ok();
                // In the thread executor the whole alternative is the
                // guard: its verdict is the run's success, its duration
                // the child's measured run time.
                let duration_ns = msg.elapsed.as_nanos() as u64;
                obs.emit(|| {
                    ObsEvent::new(
                        EventKind::GuardVerdict {
                            pass,
                            duration_ns,
                            alt: Some(i as u64),
                            site,
                        },
                        msg.world.raw(),
                        Some(parent_world.raw()),
                        obs.now_ns(),
                    )
                });
            }

            // A report sent at or past the deadline cannot win: the block
            // had timed out by then. Keep draining, though — two senders
            // race between reading the clock and sending, so an on-time
            // report may be queued behind a late one.
            let late = block.timeout.is_some_and(|t| msg.elapsed >= t);
            match msg.result {
                Ok(v) if !late => {
                    // First success wins: commit.
                    alt_runs[i].status = AltRunStatus::Won;
                    obs.emit(|| {
                        ObsEvent::new(
                            EventKind::Rendezvous,
                            msg.world.raw(),
                            Some(parent_world.raw()),
                            obs.now_ns(),
                        )
                    });
                    outcome = RunOutcome::Winner {
                        index: i,
                        label: labels[i].clone(),
                    };
                    value = Some(v);
                    worlds_prof::mark(
                        Some(parent_world.raw()),
                        site,
                        None,
                        worlds_prof::Phase::Commit,
                    );
                    let adopt_start = Instant::now();
                    self.store
                        .adopt(parent_world, msg.world)
                        .expect("winner world is a child of the parent");
                    let dirty_pages = alt_runs[i].pages_dirtied.unwrap_or(0);
                    obs.emit(|| {
                        ObsEvent::new(
                            EventKind::Commit {
                                dirty_pages,
                                overhead_ns: adopt_start.elapsed().as_nanos() as u64,
                                site,
                            },
                            msg.world.raw(),
                            Some(parent_world.raw()),
                            obs.now_ns(),
                        )
                    });
                    if parent_preds.is_resolved() {
                        for line in &msg.output {
                            self.tty
                                .emit(parent_preds, line.as_bytes())
                                .expect("committed world is resolved");
                        }
                    }
                    committed_output = msg.output;
                    break;
                }
                result => {
                    alt_runs[i].status = match result {
                        Ok(_) => AltRunStatus::Eliminated,
                        Err(e) => AltRunStatus::Failed(e.to_string()),
                    };
                    if late {
                        outcome = RunOutcome::TimedOut;
                    }
                    if reported == spawned_count {
                        break;
                    }
                }
            }
        }

        // Eliminate the siblings: cancel cooperatively, publish the
        // decision, and dispose of every loser that already finished in
        // one batch.
        cancel.cancel();
        let winner_index = match &outcome {
            RunOutcome::Winner { index, .. } => Some(*index),
            _ => None,
        };
        if obs_on {
            self.store.set_clock_ns(obs.now_ns());
            if matches!(outcome, RunOutcome::TimedOut) {
                obs.emit(|| {
                    ObsEvent::new(EventKind::Timeout, parent_world.raw(), None, obs.now_ns())
                });
            }
        }
        let winner_world = winner_index.and_then(|i| child_worlds[i]);
        let ready: Vec<WorldId> = {
            let mut st = shared.lock().unwrap();
            st.decided = true;
            st.winner = winner_world;
            std::mem::take(&mut st.finished)
        };
        // The winner may have parked itself before we decided; its world
        // was consumed by `adopt` and must not be disposed of.
        let losers: Vec<WorldId> = ready
            .into_iter()
            .filter(|&w| Some(w) != winner_world)
            .collect();
        let elim_start = Instant::now();

        if block.elim == ElimMode::Sync {
            // Synchronous elimination: one batched drop for the finished
            // losers (a single recycler acquisition), then wait for every
            // still-running sibling to reach its sync point and dispose
            // of itself (§2.2.1's slower option).
            worlds_prof::mark(
                Some(parent_world.raw()),
                site,
                None,
                worlds_prof::Phase::Elim,
            );
            self.store.drop_worlds(&losers);
            // The join below is blocking, not teardown work.
            worlds_prof::mark(
                Some(parent_world.raw()),
                site,
                None,
                worlds_prof::Phase::Wait,
            );
            latch.wait();
            // Late reports tell us how the losers ended. Each is that
            // child's only report, so its guard verdict has not been
            // recorded yet; losers that reached the sync point with a
            // passing guard still count as a rendezvous.
            while let Ok(msg) = report_rx.try_recv() {
                let i = msg.index;
                if alt_runs[i].reported_after.is_none() {
                    alt_runs[i].reported_after = Some(msg.elapsed);
                }
                if obs_on {
                    let pass = msg.result.is_ok();
                    let duration_ns = msg.elapsed.as_nanos() as u64;
                    obs.emit(|| {
                        ObsEvent::new(
                            EventKind::GuardVerdict {
                                pass,
                                duration_ns,
                                alt: Some(i as u64),
                                site,
                            },
                            msg.world.raw(),
                            Some(parent_world.raw()),
                            obs.now_ns(),
                        )
                    });
                    if pass {
                        obs.emit(|| {
                            ObsEvent::new(
                                EventKind::Rendezvous,
                                msg.world.raw(),
                                Some(parent_world.raw()),
                                obs.now_ns(),
                            )
                        });
                    }
                }
                if matches!(alt_runs[i].status, AltRunStatus::StillRunning) {
                    alt_runs[i].status = match msg.result {
                        Ok(_) => AltRunStatus::Eliminated,
                        Err(e) => AltRunStatus::Failed(e.to_string()),
                    };
                }
            }
        } else {
            // Asynchronous elimination: hand the finished losers to the
            // background reaper (batched frame recycling) and return;
            // still-running losers queue themselves when they finish.
            reaper.enqueue_many(&self.store, &losers);
        }

        if obs_on {
            // Every spawned world that did not commit is eliminated —
            // exactly once, whatever state its thread was in. Sync mode
            // charges the join wait; async elimination is off the
            // parent's critical path and charges nothing.
            let overhead_ns = match block.elim {
                ElimMode::Sync => elim_start.elapsed().as_nanos() as u64,
                ElimMode::Async => 0,
            };
            self.store.set_clock_ns(obs.now_ns());
            for (i, world) in child_worlds.iter().enumerate() {
                let Some(world) = world else { continue };
                if Some(i) == winner_index {
                    continue;
                }
                let kind = match block.elim {
                    ElimMode::Sync => EventKind::EliminateSync { overhead_ns, site },
                    ElimMode::Async => EventKind::EliminateAsync,
                };
                obs.emit(|| {
                    ObsEvent::new(
                        kind.clone(),
                        world.raw(),
                        Some(parent_world.raw()),
                        obs.now_ns(),
                    )
                });
            }
            obs.flush();
        }

        worlds_prof::restore_mark(outer_mark);

        RunReport {
            outcome,
            value,
            wall: start.elapsed(),
            alts: alt_runs,
            store_delta: self.store.stats().delta_since(&stats_before),
            committed_output,
        }
    }
}

impl std::fmt::Debug for Speculation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Speculation")
            .field("root_world", &self.root_world)
            .field("store", &self.store)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternative::Alternative;

    #[test]
    fn single_alternative_commits() {
        let spec = Speculation::new();
        let r = spec.run(AltBlock::new().alt("only", |ctx| {
            ctx.put_u64("x", 7)?;
            Ok(7u64)
        }));
        assert_eq!(r.value, Some(7));
        assert!(r.succeeded());
        assert_eq!(spec.read(|c| c.get_u64("x")), Some(7));
    }

    #[test]
    fn loser_state_never_leaks() {
        let spec = Speculation::new();
        spec.setup(|ctx| ctx.put_str("who", "nobody")).unwrap();
        let r = spec.run(
            AltBlock::new()
                .alt("fast", |ctx| {
                    ctx.put_str("who", "fast")?;
                    Ok(1u32)
                })
                .alt("slow", |ctx| {
                    std::thread::sleep(Duration::from_millis(300));
                    ctx.checkpoint()?; // sees cancellation, aborts
                    ctx.put_str("who", "slow")?;
                    Ok(2)
                })
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.winner_label(), Some("fast"));
        assert_eq!(spec.read(|c| c.get_str("who")).as_deref(), Some("fast"));
    }

    #[test]
    fn all_failures_reported() {
        let spec = Speculation::new();
        let r: RunReport<u32> = spec.run(
            AltBlock::new()
                .alt("a", |_| Err(AltError::GuardFailed("a bad".into())))
                .alt("b", |_| Err(AltError::GuardFailed("b bad".into())))
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.outcome, RunOutcome::AllFailed);
        assert_eq!(r.failures(), 2);
        assert_eq!(r.value, None);
    }

    #[test]
    fn at_sync_guard_rejects_and_other_wins() {
        let spec = Speculation::new();
        let r = spec.run(
            AltBlock::new()
                .alternative(Alternative::new("bogus", |_| Ok(-1i64)).guard(|v| *v >= 0))
                .alternative(Alternative::new("valid", |_| {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(10i64)
                }))
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.winner_label(), Some("valid"));
        assert_eq!(r.value, Some(10));
    }

    #[test]
    fn timeout_fails_the_block() {
        let spec = Speculation::new();
        let r: RunReport<u32> = spec.run(
            AltBlock::new()
                .alt("glacial", |ctx| {
                    for _ in 0..200 {
                        std::thread::sleep(Duration::from_millis(10));
                        ctx.checkpoint()?;
                    }
                    Ok(1)
                })
                .timeout(Duration::from_millis(50))
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.outcome, RunOutcome::TimedOut);
        assert!(
            r.wall < Duration::from_millis(1500),
            "timeout must not hang"
        );
    }

    #[test]
    fn losers_output_is_never_observable() {
        let spec = Speculation::new();
        let r = spec.run(
            AltBlock::new()
                .alt("winner", |ctx| {
                    ctx.print("winner speaks");
                    Ok(1u8)
                })
                .alt("loser", |ctx| {
                    ctx.print("loser speaks");
                    std::thread::sleep(Duration::from_millis(200));
                    Ok(2)
                })
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.winner_label(), Some("winner"));
        assert_eq!(spec.tty().output_strings(), vec!["winner speaks"]);
        assert_eq!(r.committed_output, vec!["winner speaks"]);
    }

    #[test]
    fn empty_block_is_failure() {
        let spec = Speculation::new();
        let r: RunReport<u8> = spec.run(AltBlock::new());
        assert_eq!(r.outcome, RunOutcome::AllFailed);
    }

    #[test]
    fn sequential_blocks_accumulate_state() {
        let spec = Speculation::new();
        spec.setup(|c| c.put_u64("acc", 0)).unwrap();
        for i in 1..=3u64 {
            let r = spec.run(AltBlock::new().alt("inc", move |ctx| {
                let cur = ctx.get_u64("acc").unwrap();
                ctx.put_u64("acc", cur + i)?;
                Ok(cur + i)
            }));
            assert!(r.succeeded());
        }
        assert_eq!(spec.read(|c| c.get_u64("acc")), Some(6));
    }

    #[test]
    fn store_accounting_shows_cow_traffic() {
        let spec = Speculation::new();
        spec.setup(|c| c.put_bytes("blob", &[1u8; 4096])).unwrap();
        let r = spec.run(
            AltBlock::new()
                .alt("toucher", |ctx| {
                    ctx.put_bytes("blob", &[2u8; 4096])?;
                    Ok(())
                })
                .elim(ElimMode::Sync),
        );
        assert!(r.store_delta.forks >= 1);
        assert!(r.store_delta.cow_faults >= 1, "rewriting the blob must COW");
    }

    #[test]
    fn async_elim_returns_before_losers_finish() {
        let spec = Speculation::new();
        let t0 = Instant::now();
        let r = spec.run(
            AltBlock::new()
                .alt("instant", |_| Ok(1u8))
                .alt("sleepy", |_| {
                    std::thread::sleep(Duration::from_millis(400));
                    Ok(2)
                })
                .elim(ElimMode::Async),
        );
        assert_eq!(r.winner_label(), Some("instant"));
        assert!(
            t0.elapsed() < Duration::from_millis(300),
            "async elimination must not wait for the sleeper"
        );
        assert_eq!(
            r.alts[1].status,
            AltRunStatus::StillRunning,
            "the loser was still running at commit"
        );
    }

    #[test]
    fn nested_blocks_commit_into_the_outer_alternative() {
        // An outer block whose alternative runs an inner block against its
        // own speculative world: the inner winner's state must be visible
        // to the outer alternative, and committed to the root only if the
        // outer alternative wins.
        let spec = Speculation::new();
        spec.setup(|c| c.put_u64("x", 1)).unwrap();
        let session = spec.clone();
        let report = spec.run(
            AltBlock::new()
                .alt("outer", move |ctx| {
                    ctx.put_u64("outer_mark", 7)?;
                    let inner = session.run_in(
                        ctx.world_id(),
                        ctx.predicates(),
                        AltBlock::new()
                            .alt("inner-a", |ictx| {
                                let x = ictx.get_u64("x").unwrap();
                                let m = ictx.get_u64("outer_mark").unwrap();
                                ictx.put_u64("x", x + m)?;
                                Ok(1u8)
                            })
                            .alt("inner-b", |ictx| {
                                let x = ictx.get_u64("x").unwrap();
                                let m = ictx.get_u64("outer_mark").unwrap();
                                ictx.put_u64("x", x + m)?;
                                Ok(2u8)
                            })
                            .elim(ElimMode::Sync),
                    );
                    assert!(inner.succeeded(), "an inner alternative must win");
                    // The inner commit is visible here, pre-outer-commit.
                    assert_eq!(ctx.get_u64("x"), Some(8));
                    Ok(inner.value.unwrap())
                })
                .elim(ElimMode::Sync),
        );
        assert!(report.succeeded());
        assert_eq!(
            spec.read(|c| c.get_u64("x")),
            Some(8),
            "nested result committed to root"
        );
    }

    #[test]
    fn nested_block_in_losing_alternative_never_escapes() {
        let spec = Speculation::new();
        spec.setup(|c| c.put_u64("x", 100)).unwrap();
        let session = spec.clone();
        let report = spec.run(
            AltBlock::new()
                .alt("fast-winner", |ctx| {
                    ctx.put_u64("x", 200)?;
                    Ok("winner")
                })
                .alt("slow-nester", move |ctx| {
                    std::thread::sleep(Duration::from_millis(100));
                    let inner = session.run_in(
                        ctx.world_id(),
                        ctx.predicates(),
                        AltBlock::new()
                            .alt("inner", |ictx| {
                                ictx.put_u64("x", 999)?;
                                Ok(0u8)
                            })
                            .elim(ElimMode::Sync),
                    );
                    let _ = inner;
                    ctx.checkpoint()?;
                    Ok("nester")
                })
                .elim(ElimMode::Sync),
        );
        assert_eq!(report.winner_label(), Some("fast-winner"));
        assert_eq!(
            spec.read(|c| c.get_u64("x")),
            Some(200),
            "the losing alternative's nested commit died with its world"
        );
    }

    #[test]
    fn nested_output_is_not_released_by_speculative_parents() {
        let spec = Speculation::new();
        let session = spec.clone();
        let report = spec.run(
            AltBlock::new()
                .alt("outer", move |ctx| {
                    let inner = session.run_in(
                        ctx.world_id(),
                        ctx.predicates(),
                        AltBlock::new()
                            .alt("inner", |ictx| {
                                ictx.print("inner speaks");
                                Ok(0u8)
                            })
                            .elim(ElimMode::Sync),
                    );
                    // The inner output is handed back, not printed; the
                    // outer alternative re-buffers it.
                    for line in &inner.committed_output {
                        ctx.print(format!("relayed: {line}"));
                    }
                    Ok(0u8)
                })
                .elim(ElimMode::Sync),
        );
        assert!(report.succeeded());
        assert_eq!(spec.tty().output_strings(), vec!["relayed: inner speaks"]);
    }

    #[test]
    fn pre_spawn_guards_skip_alternatives_without_forking() {
        let spec = Speculation::new();
        let before = spec.store().stats();
        let r = spec.run(
            AltBlock::new()
                .alternative(Alternative::new("rejected", |_| Ok(1u32)).pre_guard(|| false))
                .alternative(Alternative::new("accepted", |_| Ok(2u32)).pre_guard(|| true))
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.value, Some(2));
        assert_eq!(
            spec.store().stats().delta_since(&before).forks,
            1,
            "the rejected alternative must never fork a world"
        );
        assert!(matches!(r.alts[0].status, AltRunStatus::Failed(_)));
    }

    #[test]
    fn all_pre_spawn_rejections_fail_the_block() {
        let spec = Speculation::new();
        let r: RunReport<u8> = spec.run(
            AltBlock::new()
                .alternative(Alternative::new("a", |_| Ok(1u8)).pre_guard(|| false))
                .alternative(Alternative::new("b", |_| Ok(2u8)).pre_guard(|| false))
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.outcome, RunOutcome::AllFailed);
        assert_eq!(r.failures(), 2);
        assert_eq!(spec.store().world_count(), 1, "no worlds created");
    }

    #[test]
    fn mixed_pre_spawn_and_runtime_failures() {
        let spec = Speculation::new();
        let r: RunReport<u8> = spec.run(
            AltBlock::new()
                .alternative(Alternative::new("never", |_| Ok(1u8)).pre_guard(|| false))
                .alt("errors", |_| Err(AltError::GuardFailed("later".into())))
                .elim(ElimMode::Sync),
        );
        // One skipped + one runtime failure = AllFailed, promptly (the
        // reported-count bookkeeping must use spawned, not total, count).
        assert_eq!(r.outcome, RunOutcome::AllFailed);
    }

    #[test]
    fn obs_accounts_for_every_world_in_real_thread_mode() {
        let spec = Speculation::with_obs(PAGE_SIZE_DEFAULT, Registry::enabled());
        spec.setup(|c| c.put_u64("x", 1)).unwrap();
        let r = spec.run(
            AltBlock::new()
                .alternative(Alternative::new("skipped", |_| Ok(0u8)).pre_guard(|| false))
                .alt("fails", |_| Err(AltError::GuardFailed("no".into())))
                .alt("wins", |ctx| {
                    ctx.put_u64("x", 2)?;
                    Ok(1u8)
                })
                .alt("loses", |ctx| {
                    std::thread::sleep(Duration::from_millis(150));
                    ctx.checkpoint()?;
                    Ok(2)
                })
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.winner_label(), Some("wins"));
        let s = spec.obs().stats().expect("registry is enabled");
        let spawned = s.kernel.worlds_spawned.get();
        assert_eq!(spawned, 3, "three alternatives pass the pre-spawn guard");
        assert_eq!(
            s.kernel.commits.get()
                + s.kernel.eliminations_sync.get()
                + s.kernel.eliminations_async.get(),
            spawned,
            "every spawned world commits or is eliminated"
        );
        assert_eq!(s.kernel.commits.get(), 1);
        assert!(
            s.kernel.guard_fail.get() >= 2,
            "pre-spawn + runtime failures"
        );
        assert!(
            s.pagestore.page_copies.get() >= 1,
            "the winner rewrote a shared page"
        );
    }

    #[test]
    fn worlds_are_reclaimed_after_sync_block() {
        let spec = Speculation::new();
        spec.setup(|c| c.put_u64("x", 1)).unwrap();
        let _ = spec.run(
            AltBlock::new()
                .alt("a", |ctx| {
                    ctx.put_u64("x", 2)?;
                    Ok(())
                })
                .alt("b", |ctx| {
                    ctx.put_u64("x", 3)?;
                    Ok(())
                })
                .elim(ElimMode::Sync),
        );
        assert_eq!(
            spec.store().world_count(),
            1,
            "only the root world survives"
        );
    }

    /// Regression: async elimination drops the loser's world from a detached
    /// thread *after* the winner has been adopted into the root. That drop
    /// must release only frames the loser held privately — never a frame the
    /// winner (now the root) still maps, even though both worlds forked the
    /// same pages.
    #[test]
    fn async_elimination_never_frees_winner_mapped_frames() {
        let spec = Speculation::new();
        spec.setup(|c| {
            c.put_u64("a", 100)?;
            c.put_u64("b", 101)?;
            c.put_u64("c", 102)?;
            c.put_u64("d", 103)
        })
        .unwrap();
        let r = spec.run(
            AltBlock::new()
                .alt("wins", |ctx| {
                    ctx.put_u64("a", 42)?;
                    Ok(1u8)
                })
                .alt("slow-loser", |ctx| {
                    // Touch the same shared pages as the winner, then outlive
                    // the commit so this world is torn down in the background
                    // while the root already maps the winner's frames.
                    ctx.put_u64("a", 7)?;
                    ctx.put_u64("b", 8)?;
                    std::thread::sleep(Duration::from_millis(60));
                    ctx.put_u64("c", 9)?;
                    Ok(2u8)
                })
                .elim(ElimMode::Async),
        );
        assert_eq!(r.winner_label(), Some("wins"));

        // Wait for the detached loser thread to finish its drop_world.
        for _ in 0..400 {
            if spec.store().world_count() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(spec.store().world_count(), 1, "loser world reclaimed");

        // Every page the winner committed is still readable with the
        // winner's content — nothing was freed out from under the root.
        assert_eq!(spec.read(|c| c.get_u64("a")), Some(42));
        assert_eq!(spec.read(|c| c.get_u64("b")), Some(101));
        assert_eq!(spec.read(|c| c.get_u64("c")), Some(102));
        assert_eq!(spec.read(|c| c.get_u64("d")), Some(103));

        // And the frame table balances exactly: the surviving root accounts
        // for every live frame, so the loser freed its frames and no others.
        let live = spec
            .store()
            .verify_refcounts()
            .expect("refcount invariant after async elimination");
        assert_eq!(live, spec.store().live_frames());
    }

    /// The pool-reuse stress of the executor PR: a session pinned to a
    /// **one-worker** pool runs nested blocks whose outer alternative
    /// blocks on its inner block. Without the pool's reserve-or-grow rule
    /// this deadlocks instantly (the only worker is occupied by the task
    /// that is waiting for the queued ones); with it, every iteration
    /// completes.
    #[test]
    fn nested_blocks_share_a_one_worker_pool_without_deadlock() {
        let pool = Executor::new(1);
        let spec = Speculation::new().with_executor(pool.clone());
        spec.setup(|c| c.put_u64("x", 0)).unwrap();
        for round in 1..=10u64 {
            let session = spec.clone();
            let r = spec.run(
                AltBlock::new()
                    .alt("outer", move |ctx| {
                        let inner = session.run_in(
                            ctx.world_id(),
                            ctx.predicates(),
                            AltBlock::new()
                                .alt("inner-a", move |ictx| {
                                    let x = ictx.get_u64("x").unwrap();
                                    ictx.put_u64("x", x + round)?;
                                    Ok(1u8)
                                })
                                .alt("inner-b", move |ictx| {
                                    let x = ictx.get_u64("x").unwrap();
                                    ictx.put_u64("x", x + round)?;
                                    Ok(2u8)
                                })
                                .elim(ElimMode::Sync),
                        );
                        assert!(inner.succeeded(), "inner block must win");
                        Ok(inner.value.unwrap())
                    })
                    .elim(ElimMode::Sync),
            );
            assert!(r.succeeded(), "round {round} must commit");
        }
        assert_eq!(spec.read(|c| c.get_u64("x")), Some((1..=10u64).sum()));
        assert_eq!(spec.store().world_count(), 1, "no leaked worlds");
        pool.shutdown();
    }

    /// Regression for the cancellation point at the page-write boundary:
    /// a loser that wakes up *after* the winner has committed must be
    /// refused at its next write — no page of a decided-against world is
    /// ever dirtied again, in either executor mode.
    #[test]
    fn cancelled_loser_never_writes_after_winner_commits() {
        for spec in [Speculation::new(), Speculation::new().with_thread_per_alt()] {
            spec.setup(|c| c.put_u64("poison", 0)).unwrap();
            let r = spec.run(
                AltBlock::new()
                    .alt("wins", |ctx| {
                        ctx.put_u64("x", 1)?;
                        Ok(1u8)
                    })
                    .alt("late-writer", |ctx| {
                        // Deterministically outlive the commit, then try
                        // to write.
                        while !ctx.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        match ctx.put_u64("poison", 99) {
                            Err(AltError::Cancelled) => Err(AltError::Cancelled),
                            other => panic!("write after cancel must be refused, got {other:?}"),
                        }
                    })
                    .elim(ElimMode::Sync),
            );
            assert_eq!(r.winner_label(), Some("wins"));
            assert_eq!(spec.read(|c| c.get_u64("poison")), Some(0));
            assert_eq!(spec.store().world_count(), 1);
        }
    }

    #[test]
    fn the_first_alternative_runs_on_the_calling_thread() {
        for spec in [Speculation::new(), Speculation::new().with_thread_per_alt()] {
            let r = spec.run(
                AltBlock::new()
                    .alt("first", |_| Ok(std::thread::current().id()))
                    .alt("pooled", |_| Err(AltError::GuardFailed("no".into())))
                    .elim(ElimMode::Sync),
            );
            assert_eq!(r.winner_label(), Some("first"));
            assert_eq!(r.value, Some(std::thread::current().id()));
        }
    }

    /// The caller is busy in alternative 0 when alternative 1 succeeds, so
    /// only the success itself can stop it: the parent cannot decide the
    /// block before its own alternative returns.
    #[test]
    fn a_pooled_success_stops_the_callers_alternative() {
        let spec = Speculation::new();
        let t0 = Instant::now();
        let r = spec.run(
            AltBlock::new()
                .alt("spins", move |ctx| {
                    // Bounded so a regression fails instead of hanging.
                    while t0.elapsed() < Duration::from_secs(5) {
                        ctx.checkpoint()?;
                        std::hint::spin_loop();
                    }
                    Ok(0u8)
                })
                .alt("instant", |_| Ok(1u8)),
        );
        assert_eq!(
            r.outcome,
            RunOutcome::Winner {
                index: 1,
                label: "instant".into()
            }
        );
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    /// The caller reaches alt_wait only after the deadline, with the
    /// pooled success long since in the channel: it must still win.
    #[test]
    fn a_report_before_the_deadline_still_wins() {
        let spec = Speculation::new();
        let r = spec.run(
            AltBlock::new()
                .alt("oversleeps", |_| {
                    std::thread::sleep(Duration::from_millis(80));
                    Ok(0u8)
                })
                .alt("instant", |_| Ok(1u8))
                .timeout(Duration::from_millis(30)),
        );
        assert_eq!(
            r.outcome,
            RunOutcome::Winner {
                index: 1,
                label: "instant".into()
            }
        );
        assert_eq!(r.value, Some(1));
    }

    #[test]
    fn a_three_way_block_runs_two_pool_tasks() {
        let spec = Speculation::with_obs(PAGE_SIZE_DEFAULT, Registry::enabled());
        let tasks_run = || spec.obs().stats().unwrap().exec.tasks_run.get();
        let before = tasks_run();
        let r = spec.run(
            AltBlock::new()
                .alt("a", |ctx| ctx.put_u64("x", 1))
                .alt("b", |ctx| ctx.put_u64("x", 2))
                .alt("c", |ctx| ctx.put_u64("x", 3))
                .elim(ElimMode::Sync),
        );
        assert!(r.succeeded());
        assert_eq!(
            tasks_run() - before,
            2,
            "N−1 pool tasks, the caller runs one"
        );
    }

    /// Spans from a pooled-executor run must reconstruct exactly like
    /// thread-per-alternative ones did: one committed span carrying its
    /// alternative index, the loser eliminated, and nothing orphaned.
    #[test]
    fn pool_run_events_reconstruct_into_a_span_tree() {
        use worlds_obs::{SpanOutcome, SpanTree};
        let (obs, ring) = Registry::with_ring(4096);
        let spec = Speculation::with_obs(PAGE_SIZE_DEFAULT, obs);
        spec.setup(|c| c.put_u64("x", 1)).unwrap();
        let root = spec.read(|c| c.world_id().raw());
        let r = spec.run(
            AltBlock::new()
                .alt("wins", |ctx| {
                    assert_eq!(ctx.trace_ctx().world, ctx.world_id().raw());
                    ctx.put_u64("x", 2)?;
                    Ok(1u8)
                })
                .alt("loses", |ctx| {
                    ctx.put_u64("x", 3)?;
                    std::thread::sleep(Duration::from_millis(50));
                    Ok(2u8)
                })
                .elim(ElimMode::Sync),
        );
        assert_eq!(r.winner_label(), Some("wins"));
        let events = ring.events();
        let tree = SpanTree::build(events.iter());
        let committed: Vec<_> = tree
            .spans()
            .filter(|s| s.outcome == SpanOutcome::Committed)
            .collect();
        assert_eq!(committed.len(), 1, "exactly one world commits");
        assert_eq!(committed[0].alt, Some(0), "the winner is alternative 0");
        assert_eq!(committed[0].parent, Some(root));
        let eliminated = tree
            .spans()
            .filter(|s| s.outcome == SpanOutcome::EliminatedSync)
            .count();
        assert_eq!(eliminated, 1, "the loser is eliminated synchronously");
        for s in tree.spans() {
            if s.world != root {
                assert_eq!(s.parent, Some(root), "no orphan spans from pool runs");
            }
        }
    }
}
