//! The speculation session and its pooled executor.
//!
//! A [`Speculation`] plays the role of the paper's parent process plus
//! kernel: it owns the single-level store (all sink state), the teletype
//! (source state), and a root world. [`Speculation::run`] is
//! `alt_spawn(n)` + `alt_wait(TIMEOUT)`, decided on one block word
//! (`crate::word`):
//!
//! 1. every alternative gets a fresh pid, sibling-rivalry predicates, a
//!    COW fork of the root world and a report slot. All but the first
//!    spawned one are submitted, tagged with the block, to a persistent
//!    pool ([`worlds_exec::Executor`]) shared by every block — see
//!    [`Speculation::with_thread_per_alt`] for the thread-per-alternative
//!    ablation mode — and the first runs on the calling thread, which
//!    would otherwise only block in `alt_wait`. Then, while a block
//!    without a `TIMEOUT` is
//!    undecided, the caller takes back each sibling no worker has started
//!    yet and runs it too. The block cannot return before an alternative
//!    the caller runs returns or reaches a cancellation point; a timed
//!    block leaves its siblings to the workers, so only its first
//!    alternative can overrun `TIMEOUT`;
//! 2. every alternative puts its report into its slot and offers it with
//!    one compare-and-swap on the block word: the **first** on-time
//!    success decides the block, whichever thread it ran on — "`alt_wait()`
//!    is an 'at most once' operation for any group of child processes"
//!    (§2.2.1). A report made before the block's `TIMEOUT` counts however
//!    late the parent looks; one made after it cannot win, and the parent
//!    times the block out at its deadline, or when every report is in and
//!    one of them was late. The parent parks at most once per wait, and
//!    only the deciding offer or the last report unparks it;
//! 3. the winner's world is adopted into the root world (atomic page-map
//!    replacement) and its buffered teletype output becomes observable;
//! 4. the siblings are eliminated: cancelled cooperatively (observed at
//!    checkpoint and page-write boundaries) and their worlds torn down.
//!    The decided block takes back its still-queued siblings unrun, and
//!    disposes of their worlds in the same batch as the losers that had
//!    reported — one [`PageStore::drop_worlds`] call ([`ElimMode::Sync`],
//!    which first waits for every running sibling to report) or one hand-off
//!    to the background [`worlds_exec::Reaper`] ([`ElimMode::Async`], the
//!    paper's faster choice, where a loser still running disposes of its
//!    own world when it reports). Cancellation does not wait for the
//!    parent: an alternative reads itself cancelled from the block word
//!    once the winning offer has decided it, or from a timed block's
//!    deadline on, so the alternatives the parent runs stop for a
//!    sibling's win or the timeout too; a task that starts cancelled
//!    skips its body.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use worlds_exec::{Executor, Reaper};
use worlds_obs::{env, Event as ObsEvent, EventKind, Registry, TraceCtx};
use worlds_pagestore::{FileSystem, PageStore, WorldId, PAGE_SIZE_DEFAULT};

use crate::block::{AltBlock, ElimMode};
use crate::ctx::WorldCtx;
use crate::error::AltError;
use crate::ipc::{SourceDevice, Teletype};
use crate::predicate::{Pid, PredicateSet};
use crate::report::{AltRun, AltRunStatus, RunOutcome, RunReport};
use crate::word::{late_loser_disposes, BlockWord, Decision, Phase, Slot, Verdict};

/// How a [`Speculation`] dispatches its alternatives.
#[derive(Clone, Debug)]
pub(crate) enum ExecMode {
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

/// What each child task puts into its slot at its synchronization
/// attempt; whoever takes it owns the world in it.
struct ChildReport<T> {
    result: Result<T, AltError>,
    world: WorldId,
    output: Vec<String>,
    elapsed: Duration,
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
    /// ([`PageStore::set_dedupe`]). It is an [`env::flag`], with the
    /// same rule as `WORLDS_OBS`/`WORLDS_PROF`.
    pub fn with_obs(page_size: usize, obs: Registry) -> Self {
        // WORLDS_PROF=1 gets a sampler without bespoke wiring: the first
        // session's registry receives the flushes.
        worlds_obs::prof::autostart_from_env(&obs);
        let store = PageStore::with_obs(page_size, obs);
        store.set_dedupe(env::flag(env::DEDUPE));
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
        let mut ctx = self.root_ctx();
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
        f(&self.root_ctx())
    }

    /// A context on the root world, which runs under no assumptions and
    /// in no block (so it is never cancelled), and causes itself.
    fn root_ctx(&self) -> WorldCtx {
        WorldCtx::new(
            self.fs.clone(),
            self.root_world,
            self.root_pid,
            PredicateSet::empty(),
            Decision::new(0, None),
            TraceCtx {
                root: self.root_world.raw(),
                world: self.root_world.raw(),
            },
        )
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
        let site = block.site.map(|s| s.0);
        if let Some(s) = block.site {
            // Captures must be renderable in other processes: the label
            // behind this interned id rides the stream once.
            obs.announce_site(s);
        }
        let deadline = block.timeout.map(|t| start + t);
        let shared = Arc::new(BlockWord::<ChildReport<T>>::new(n, deadline));
        // Unique while any of this block's tasks is queued: each holds
        // a reference to `shared`.
        let tag = Arc::as_ptr(&shared) as usize;
        let reaper = Reaper::global();

        // Pids first: sibling-rivalry predicates need the whole cohort.
        let pids: Vec<Pid> = (0..n).map(|_| Pid::fresh()).collect();

        let mut alt_runs: Vec<AltRun> = Vec::with_capacity(n);
        let mut child_worlds: Vec<Option<WorldId>> = Vec::with_capacity(n);
        // The first spawned alternative's task, run on this thread once
        // its siblings are submitted.
        let mut own_task = None;
        for (i, alt) in block.alts.into_iter().enumerate() {
            alt_runs.push(AltRun {
                label: alt.label.clone(),
                status: AltRunStatus::StillRunning,
                reported_after: None,
                pages_dirtied: None,
            });
            // Pre-spawn guards run serially in the parent; failing
            // alternatives never get a world or a task.
            if let Some(g) = &alt.pre_spawn_guard {
                let guard_start = Instant::now();
                if !g() {
                    alt_runs[i].status =
                        AltRunStatus::Failed("pre-spawn guard failed; never spawned".into());
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
            let shared = shared.clone();
            let reaper = reaper.clone();
            let (elim, timeout, pid) = (block.elim, block.timeout, pids[i]);

            let task = move || {
                // Withdrawn by the parent before it started: the world
                // is the parent's to dispose of.
                if !shared.slot(i, Slot::claim) {
                    return;
                }
                // A task that starts after a sibling succeeded, the block
                // was decided or its deadline passed cannot win: it
                // reports itself cancelled without running its body.
                let (result, output) = if shared.decision().is_cancelled() {
                    (Err(AltError::Cancelled), Vec::new())
                } else {
                    // Refine the executor's bare `Task` marker: this thread
                    // is now a specific alternative in a specific world.
                    worlds_obs::prof::mark(
                        Some(world.raw()),
                        site,
                        Some(i as u64),
                        worlds_obs::prof::Phase::Guard,
                    );
                    let decision = shared.decision().clone();
                    let mut ctx = WorldCtx::new(fs, world, pid, preds, decision, trace);
                    // A panic fails the alternative, not the block.
                    let result = catch_unwind(AssertUnwindSafe(|| alt.execute(&mut ctx)))
                        .unwrap_or_else(|_| Err(AltError::GuardFailed("panicked".into())));
                    (result, std::mem::take(&mut ctx.output))
                };
                let elapsed = start.elapsed();
                let (ok, late) = (result.is_ok(), timeout.is_some_and(|t| elapsed >= t));
                let report = ChildReport {
                    result,
                    world,
                    output,
                    elapsed,
                };
                // A success eliminates by deciding the word: the siblings,
                // the parent's own alternative among them, stop at their
                // next cancellation point.
                let verdict = shared.offer(i, report, ok, late);
                if verdict == Verdict::Late && late_loser_disposes(elim, shared.on_parent()) {
                    if let Some(r) = shared.slot(i, Slot::take) {
                        reaper.enqueue(&store, r.world);
                    }
                }
            };
            if own_task.is_none() {
                own_task = Some(task);
                continue;
            }
            match &self.exec {
                ExecMode::Pooled(exec) => exec.spawn_tagged(&obs, tag, task),
                ExecMode::ThreadPerAlt => {
                    std::thread::spawn(task);
                }
            }
        }

        let Some(own_task) = own_task else {
            // Every alternative was rejected before spawning (or none
            // was given).
            return RunReport {
                outcome: RunOutcome::AllFailed,
                value: None,
                wall: start.elapsed(),
                alts: alt_runs,
                store_delta: self.store.stats().delta_since(&stats_before),
                committed_output: Vec::new(),
            };
        };
        let never_spawned = child_worlds.iter().filter(|w| w.is_none()).count();
        if never_spawned > 0 {
            shared.update(|w| (w.release(never_spawned), ()));
        }

        // A nested caller's own (Guard) marker is put back at the end.
        let outer_mark = worlds_obs::prof::current_mark();
        // Help first: the siblings are queued, so rather than park in
        // alt_wait this thread runs the first alternative itself, then,
        // if the block has no deadline for a sibling to overrun, takes
        // back and runs each one no worker has started yet, for as long
        // as the block is undecided.
        own_task();
        while block.timeout.is_none() && shared.load().phase() == Phase::Open {
            match self.take_back(tag) {
                Some(task) => task(),
                None => break,
            }
        }
        // From here the parent is off-CPU by intent while the rest race.
        worlds_obs::prof::mark(
            Some(parent_world.raw()),
            site,
            None,
            worlds_obs::prof::Phase::Wait,
        );
        // alt_wait(TIMEOUT): the first on-time success decides, every
        // report failing decides, or the deadline does. Each report is
        // judged by its own time, however late the parent looks.
        shared.wait(false);
        let elim_start = Instant::now();
        // Take back the siblings no worker has started, unrun, and give
        // their worlds to this block's batch.
        while self.take_back(tag).is_some() {}
        let withdrawn: Vec<usize> = (0..n)
            .filter(|&i| child_worlds[i].is_some() && shared.slot(i, Slot::withdraw))
            .collect();
        if !withdrawn.is_empty() {
            shared.update(|w| (w.release(withdrawn.len()), ()));
        }
        // Synchronous elimination (§2.2.1's slower option) also waits for
        // every running sibling to reach its sync point and report.
        let word = match block.elim {
            ElimMode::Sync => shared.wait(true),
            ElimMode::Async => shared.load(),
        };
        let (outcome, winner_index) = match word.phase() {
            Phase::Won(index) => {
                let label = alt_runs[index].label.clone();
                (RunOutcome::Winner { index, label }, Some(index))
            }
            Phase::TimedOut => (RunOutcome::TimedOut, None),
            Phase::Open => (RunOutcome::AllFailed, None),
        };
        if obs_on {
            self.store.set_clock_ns(obs.now_ns());
        }

        // Read every report in a slot: the winner's commits; the rest are
        // losers, disposed of with the withdrawn in one batch. Running
        // losers' reports come later and dispose of themselves.
        let mut value: Option<T> = None;
        let mut committed_output: Vec<String> = Vec::new();
        let mut losers: Vec<WorldId> = withdrawn.iter().filter_map(|&i| child_worlds[i]).collect();
        for (i, run) in alt_runs.iter_mut().enumerate() {
            let Some(ChildReport {
                result,
                world,
                output,
                elapsed,
            }) = shared.slot(i, Slot::take)
            else {
                continue;
            };
            run.reported_after = Some(elapsed);
            run.pages_dirtied = self
                .store
                .world_stats(world)
                .ok()
                .map(|s| s.pages_cowed + s.pages_zero_filled);
            let pass = result.is_ok();
            // In the thread executor the whole alternative is the guard:
            // its verdict is the run's success, its duration the child's
            // measured run time.
            obs.emit(|| {
                ObsEvent::new(
                    EventKind::GuardVerdict {
                        pass,
                        duration_ns: elapsed.as_nanos() as u64,
                        alt: Some(i as u64),
                        site,
                    },
                    world.raw(),
                    Some(parent_world.raw()),
                    obs.now_ns(),
                )
            });
            // The winner, and in sync mode every loser that reached its
            // sync point with a passing guard, made a rendezvous.
            let winner = Some(i) == winner_index;
            if pass && (winner || block.elim == ElimMode::Sync) {
                obs.emit(|| {
                    ObsEvent::new(
                        EventKind::Rendezvous,
                        world.raw(),
                        Some(parent_world.raw()),
                        obs.now_ns(),
                    )
                });
            }
            match result {
                Ok(v) if winner => {
                    run.status = AltRunStatus::Won;
                    let dirty_pages = run.pages_dirtied.unwrap_or(0);
                    value = Some(v);
                    self.commit(parent_world, world, dirty_pages, site);
                    if parent_preds.is_resolved() {
                        for line in &output {
                            self.tty
                                .emit(parent_preds, line.as_bytes())
                                .expect("committed world is resolved");
                        }
                    }
                    committed_output = output;
                }
                Ok(_) => {
                    run.status = AltRunStatus::Eliminated;
                    losers.push(world);
                }
                Err(e) => {
                    run.status = AltRunStatus::Failed(e.to_string());
                    losers.push(world);
                }
            }
        }
        if block.elim == ElimMode::Sync {
            // Every alternative has ended; the withdrawn ended cancelled.
            for &i in &withdrawn {
                alt_runs[i].status = AltRunStatus::Failed(AltError::Cancelled.to_string());
            }
            worlds_obs::prof::mark(
                Some(parent_world.raw()),
                site,
                None,
                worlds_obs::prof::Phase::Elim,
            );
            // One batched drop (a single recycler acquisition).
            self.store.drop_worlds(&losers);
        } else {
            // Asynchronous elimination: the background reaper batches
            // frame recycling; the parent returns now.
            reaper.enqueue_many(&self.store, &losers);
        }

        if obs_on {
            self.store.set_clock_ns(obs.now_ns());
            if outcome == RunOutcome::TimedOut {
                obs.emit(|| {
                    ObsEvent::new(EventKind::Timeout, parent_world.raw(), None, obs.now_ns())
                });
            }
            // Every spawned world that did not commit is eliminated —
            // exactly once, whatever state its thread was in. Sync mode
            // charges the wait for the losers; async elimination is off
            // the parent's critical path and charges nothing.
            let overhead_ns = match block.elim {
                ElimMode::Sync => elim_start.elapsed().as_nanos() as u64,
                ElimMode::Async => 0,
            };
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

        worlds_obs::prof::restore_mark(outer_mark);

        RunReport {
            outcome,
            value,
            wall: start.elapsed(),
            alts: alt_runs,
            store_delta: self.store.stats().delta_since(&stats_before),
            committed_output,
        }
    }

    /// Adopt the winner's world into `parent_world`: an atomic page-map
    /// replacement.
    fn commit(&self, parent_world: WorldId, world: WorldId, dirty_pages: u64, site: Option<u64>) {
        let obs = self.store.obs();
        worlds_obs::prof::mark(
            Some(parent_world.raw()),
            site,
            None,
            worlds_obs::prof::Phase::Commit,
        );
        let adopt_start = Instant::now();
        self.store
            .adopt(parent_world, world)
            .expect("winner world is a child of the parent");
        obs.emit(|| {
            ObsEvent::new(
                EventKind::Commit {
                    dirty_pages,
                    overhead_ns: adopt_start.elapsed().as_nanos() as u64,
                    site,
                },
                world.raw(),
                Some(parent_world.raw()),
                obs.now_ns(),
            )
        });
    }

    /// Withdraw one of block `tag`'s queued tasks from the pool (none under
    /// [`ExecMode::ThreadPerAlt`], whose threads start at once).
    fn take_back(&self, tag: usize) -> Option<Box<dyn FnOnce() + Send>> {
        match &self.exec {
            ExecMode::Pooled(exec) => exec.take(tag),
            ExecMode::ThreadPerAlt => None,
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
        assert!(s.kernel.guard_pass.get() >= 1, "the winner's guard passed");
        assert_eq!(
            s.commit_latency.snapshot().count,
            1,
            "one commit overhead per commit"
        );
        assert_eq!(
            s.elim_latency.snapshot().count,
            s.kernel.eliminations_sync.get(),
            "one elimination overhead per synchronous elimination"
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

    /// A timed block's caller runs only its own alternative: a sibling it
    /// ran could hold the block's return past the deadline, so the
    /// siblings stay with the workers even when the caller is idle.
    #[test]
    fn a_timed_blocks_siblings_never_run_on_the_caller() {
        let spec = Speculation::new();
        let caller = std::thread::current().id();
        for _ in 0..100 {
            let ran_on = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut block = AltBlock::new()
                .alt("first", |_| {
                    Err::<(), _>(AltError::GuardFailed("no".into()))
                })
                .timeout(Duration::from_secs(5));
            for _ in 0..2 {
                let ran_on = ran_on.clone();
                block = block.alt("pooled", move |_| {
                    ran_on.lock().unwrap().push(std::thread::current().id());
                    Err(AltError::GuardFailed("no".into()))
                });
            }
            assert_eq!(spec.run(block).outcome, RunOutcome::AllFailed);
            let ran_on = ran_on.lock().unwrap();
            assert_eq!(ran_on.len(), 2);
            assert!(ran_on.iter().all(|&t| t != caller));
        }
    }

    /// The caller runs one alternative and submits the other two. A
    /// sibling the caller takes back before a worker starts it, to run or
    /// to drop, is not a pool task run, so at most two are.
    #[test]
    fn a_three_way_block_submits_two_pool_tasks() {
        let spec = Speculation::with_obs(PAGE_SIZE_DEFAULT, Registry::enabled());
        let exec = || {
            let s = spec.obs().stats().unwrap();
            (s.exec.tasks_injected.get(), s.exec.tasks_run.get())
        };
        let (injected, ran) = exec();
        let r = spec.run(
            AltBlock::new()
                .alt("a", |ctx| ctx.put_u64("x", 1))
                .alt("b", |ctx| ctx.put_u64("x", 2))
                .alt("c", |ctx| ctx.put_u64("x", 3))
                .elim(ElimMode::Sync),
        );
        assert!(r.succeeded());
        let (injected_after, ran_after) = exec();
        assert_eq!(injected_after - injected, 2, "N−1 submissions");
        assert!(ran_after - ran <= 2, "{} pool tasks ran", ran_after - ran);
    }

    /// A block decided while its siblings are still queued runs none of
    /// them and gives every world back before it returns. No sleeps: the
    /// block has a zero timeout, so it is decided before any alternative
    /// can start, whoever starts it — the caller, a worker, or nobody
    /// because the caller took it back.
    #[test]
    fn a_decided_block_runs_none_of_its_queued_siblings() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = Speculation::new();
        spec.setup(|c| c.put_u64("x", 0)).unwrap();
        let (worlds, frames) = (spec.store().world_count(), spec.store().live_frames());
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let mut block = AltBlock::new().timeout(Duration::ZERO).elim(ElimMode::Sync);
            for i in 0..3u64 {
                let ran = ran.clone();
                block = block.alt(format!("alt{i}"), move |ctx| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    ctx.put_u64("x", i + 1)?;
                    Ok(i)
                });
            }
            let r = spec.run(block);
            assert_eq!(r.outcome, RunOutcome::TimedOut);
            assert!(r
                .alts
                .iter()
                .all(|a| matches!(a.status, AltRunStatus::Failed(_))));
            assert_eq!(spec.store().world_count(), worlds);
            assert_eq!(spec.store().live_frames(), frames);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "a sibling body ran");
        assert_eq!(spec.read(|c| c.get_u64("x")), Some(0));
    }

    /// The winner on the calling thread decides the block while its
    /// siblings may still be queued; whichever of them no worker started
    /// is taken back unrun, and in sync mode the block returns with every
    /// world given back.
    #[test]
    fn a_callers_win_takes_back_its_siblings_and_leaks_nothing() {
        let spec = Speculation::new();
        spec.setup(|c| c.put_u64("x", 0)).unwrap();
        let (worlds, frames) = (spec.store().world_count(), spec.store().live_frames());
        for round in 1..=200u64 {
            let r = spec.run(
                AltBlock::new()
                    .alt("caller", move |ctx| ctx.put_u64("x", round).map(|_| 0u8))
                    .alt("never-wins", |ctx| {
                        ctx.put_u64("x", u64::MAX)?;
                        Err(AltError::GuardFailed("never".into()))
                    })
                    .alt("never-wins-2", |_| {
                        Err(AltError::GuardFailed("never".into()))
                    })
                    .elim(ElimMode::Sync),
            );
            assert_eq!(r.winner_label(), Some("caller"));
            assert!(r.alts[1..]
                .iter()
                .all(|a| matches!(a.status, AltRunStatus::Failed(_))));
            assert_eq!(spec.store().world_count(), worlds);
            assert_eq!(spec.store().live_frames(), frames);
        }
        assert_eq!(spec.read(|c| c.get_u64("x")), Some(200));
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
