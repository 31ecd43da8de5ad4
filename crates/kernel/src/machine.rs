//! The discrete-event machine: an M-CPU preemptive round-robin scheduler
//! executing alternative blocks in virtual time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use worlds_obs::{env, Event as ObsEvent, EventKind, Registry};
use worlds_pagestore::{PageStore, WorldId};

use crate::costs::CostModel;
use crate::report::{AltOutcome, AltStatus, Outcome, SimReport};
use crate::spec::{AltSpec, BlockSpec, ElimMode, GuardPlacement, Segment};
use crate::trace::{Trace, TraceEvent};
use crate::VirtualTime;

/// A compiled unit of work for one process.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Burn this many nanoseconds of CPU (preemptible at quantum grain).
    Cpu(u64),
    /// Dirty one page of the world (COW fault, charged page-copy cost).
    WritePage,
    /// Read one page (free, but performed against the store for fidelity).
    ReadPage,
    /// Send one message (fixed cost).
    Send,
    /// Evaluate the guard; aborts the process on failure.
    GuardEval,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Ready,
    Running,
    Done,
    Aborted,
}

#[derive(Debug)]
struct Proc {
    alt_index: usize,
    world: WorldId,
    ops: VecDeque<Op>,
    state: ProcState,
    cpu_time: u64,
    finished_at: Option<u64>,
    /// When the guard evaluation completed (virtual ns), so the verdict
    /// event lands where the guard actually ran, not at process exit.
    guard_done_at: Option<u64>,
    guard_pass: bool,
    next_vpn: u64,
}

#[derive(Debug, PartialEq, Eq)]
enum Ev {
    /// Process becomes ready (fork completed for it).
    Ready(usize),
    /// The chunk running on this CPU finishes.
    ChunkDone { cpu: usize, proc_id: usize },
    /// The parent's `alt_wait` TIMEOUT fires.
    Timeout,
}

/// A simulated machine: cost model + page store + scheduler.
///
/// `run_block` is deterministic: the same spec always produces the same
/// report, byte for byte.
#[derive(Debug)]
pub struct Machine {
    cost: CostModel,
    store: PageStore,
    obs: Registry,
}

impl Machine {
    /// Build a machine; its page store uses the model's page size.
    /// Observability is disabled (zero-cost); use [`Machine::with_obs`]
    /// to wire a registry.
    pub fn new(cost: CostModel) -> Self {
        Self::with_obs(cost, Registry::disabled())
    }

    /// Build a machine wired to an observability registry. The page
    /// store shares the registry and is driven by the machine's virtual
    /// clock, so page events carry the same world ids and timestamps as
    /// kernel events.
    ///
    /// `WORLDS_DEDUPE=1` in the environment arms the store's content
    /// index ([`PageStore::set_dedupe`]), so any example or bench can
    /// run deduped without code changes. It is an [`env::flag`], with
    /// the same rule as `WORLDS_OBS`/`WORLDS_PROF`.
    pub fn with_obs(cost: CostModel, obs: Registry) -> Self {
        let store = PageStore::with_obs(cost.page_size, obs.clone());
        store.set_dedupe(env::flag(env::DEDUPE));
        Machine { cost, store, obs }
    }

    /// The machine's observability registry.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The machine's page store (for post-run inspection).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// `τ(Cᵢ, λ)`: the alternative's plain sequential runtime — guard,
    /// compute and messages, but none of the speculation machinery (no
    /// fork, no COW, no elimination).
    pub fn isolated_time(&self, alt: &AltSpec) -> VirtualTime {
        let mut t = alt.guard_cost;
        for seg in &alt.segments {
            match seg {
                Segment::Compute(d) => t += *d,
                Segment::WritePages(_) | Segment::ReadPages(_) => {}
                Segment::SendMessage { .. } => t += self.cost.message,
            }
        }
        t
    }

    /// Execute one alternative block to completion, returning the full
    /// measurement report.
    pub fn run_block(&mut self, spec: &BlockSpec) -> SimReport {
        self.run_block_traced(spec).0
    }

    /// Like [`Machine::run_block`], but also returns the execution
    /// history (§2.2: "the taken path is reflected in the execution
    /// history").
    pub fn run_block_traced(&mut self, spec: &BlockSpec) -> (SimReport, Trace) {
        let n = spec.alts.len();
        let quantum = self.cost.quantum.as_ns().max(1);
        let obs_on = self.obs.is_enabled();

        // --- Parent setup: shared state, pre-spawn guards, forks. ---
        let parent_world = self.store.create_world();
        // The whole simulation is real CPU on the calling thread; stamp
        // the transitions so the sampler attributes it (and the watchdog
        // sees progress between blocks).
        let outer_mark = worlds_obs::prof::current_mark();
        worlds_obs::prof::mark(
            Some(parent_world.raw()),
            None,
            None,
            worlds_obs::prof::Phase::Task,
        );
        for vpn in 0..spec.shared_pages {
            self.store
                .write(parent_world, vpn, 0, &[0xA5])
                .expect("parent world is live");
        }

        let mut t_setup: u64 = 0;
        let mut spawned: Vec<bool> = vec![true; n];
        let mut guard_times: Vec<u64> = vec![0; n];
        if spec.guard_placement == GuardPlacement::PreSpawn {
            for (i, alt) in spec.alts.iter().enumerate() {
                t_setup += alt.guard_cost.as_ns();
                guard_times[i] = t_setup;
                // A failing guard is discovered here; that alternative is
                // never spawned.
                spawned[i] = alt.guard_pass;
            }
        }

        let mut procs: Vec<Proc> = Vec::with_capacity(n);
        let mut events: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut payloads: Vec<Ev> = Vec::new();
        let mut seq: u64 = 0;
        let push_ev = |events: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
                       payloads: &mut Vec<Ev>,
                       seq: &mut u64,
                       time: u64,
                       ev: Ev| {
            payloads.push(ev);
            events.push(Reverse((time, *seq, payloads.len() - 1)));
            *seq += 1;
        };

        let mut spawn_overhead: u64 = 0;
        let mut spawn_times: Vec<Option<u64>> = vec![None; n];
        for (i, alt) in spec.alts.iter().enumerate() {
            if !spawned[i] {
                procs.push(Proc {
                    alt_index: i,
                    world: parent_world, // never used
                    ops: VecDeque::new(),
                    state: ProcState::Aborted,
                    cpu_time: 0,
                    finished_at: Some(t_setup),
                    guard_done_at: Some(guard_times[i]),
                    guard_pass: false,
                    next_vpn: 0,
                });
                continue;
            }
            // Forks are issued serially by the parent; child i becomes
            // ready once its fork completes.
            t_setup += self.cost.fork.as_ns();
            spawn_overhead += self.cost.fork.as_ns();
            let world = self
                .store
                .fork_world(parent_world)
                .expect("parent world is live");
            let ops = compile(alt, spec.guard_placement);
            procs.push(Proc {
                alt_index: i,
                world,
                ops,
                state: ProcState::Ready,
                cpu_time: 0,
                finished_at: None,
                guard_done_at: None,
                guard_pass: alt.guard_pass,
                next_vpn: 0,
            });
            spawn_times[i] = Some(t_setup);
            push_ev(&mut events, &mut payloads, &mut seq, t_setup, Ev::Ready(i));
        }

        if let Some(timeout) = spec.timeout {
            push_ev(
                &mut events,
                &mut payloads,
                &mut seq,
                t_setup + timeout.as_ns(),
                Ev::Timeout,
            );
        }

        // --- Event loop. ---
        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut cpus: Vec<Option<usize>> = vec![None; self.cost.cpus];
        let mut now: u64 = t_setup;
        let mut winner: Option<usize> = None;
        let mut timed_out = false;
        let mut total_cpu: u64 = t_setup; // parent setup work is CPU work

        'sim: while let Some(Reverse((t, _s, pidx))) = events.pop() {
            now = t;
            if obs_on {
                // Keep the store's virtual clock current so page events
                // (COW copies, zero fills) carry simulation timestamps.
                self.store.set_clock_ns(now);
            }
            match &payloads[pidx] {
                Ev::Ready(p) => {
                    ready.push_back(*p);
                }
                Ev::ChunkDone { cpu, proc_id } => {
                    let p = *proc_id;
                    cpus[*cpu] = None;
                    let done = {
                        let proc = &mut procs[p];
                        if proc.state != ProcState::Running {
                            // The guard-abort completion: the CPU is now
                            // free; fall through to dispatch (a `continue`
                            // here would strand ready processes when this
                            // is the last queued event).
                            None
                        } else {
                            proc.state = ProcState::Ready;
                            Some(proc.ops.is_empty())
                        }
                    };
                    if done == Some(true) {
                        procs[p].state = ProcState::Done;
                        procs[p].finished_at = Some(now);
                        if procs[p].guard_pass {
                            winner = Some(p);
                            break 'sim;
                        }
                        // Guard failed (discovered mid-run by GuardEval's
                        // abort handling below or at completion here).
                    } else if done == Some(false) {
                        ready.push_back(p);
                    }
                }
                Ev::Timeout => {
                    if winner.is_none() {
                        timed_out = true;
                        break 'sim;
                    }
                }
            }

            // Dispatch ready processes onto free CPUs. A zero-cost guard
            // abort leaves its CPU free, so keep dispatching on the same
            // CPU until it is genuinely occupied or nothing is runnable.
            #[allow(clippy::needless_range_loop)] // `cpu` is an id shared with events
            for cpu in 0..cpus.len() {
                if cpus[cpu].is_some() {
                    continue;
                }
                loop {
                    // Skip aborted processes still sitting in the queue.
                    while let Some(&head) = ready.front() {
                        if procs[head].state == ProcState::Ready {
                            break;
                        }
                        ready.pop_front();
                    }
                    let Some(p) = ready.pop_front() else { break };
                    let dur = self.execute_next_chunk(&mut procs[p], quantum, now);
                    match dur {
                        ChunkResult::Ran(ns) => {
                            procs[p].state = ProcState::Running;
                            procs[p].cpu_time += ns;
                            total_cpu += ns;
                            cpus[cpu] = Some(p);
                            push_ev(
                                &mut events,
                                &mut payloads,
                                &mut seq,
                                now + ns,
                                Ev::ChunkDone { cpu, proc_id: p },
                            );
                            break;
                        }
                        ChunkResult::GuardAbort(ns) => {
                            procs[p].cpu_time += ns;
                            total_cpu += ns;
                            procs[p].state = ProcState::Aborted;
                            procs[p].finished_at = Some(now + ns);
                            if ns > 0 {
                                // The abort consumed CPU; occupy it until
                                // now + ns like any other chunk.
                                cpus[cpu] = Some(p);
                                push_ev(
                                    &mut events,
                                    &mut payloads,
                                    &mut seq,
                                    now + ns,
                                    Ev::ChunkDone { cpu, proc_id: p },
                                );
                                break;
                            }
                            // Zero-cost abort: this CPU is still free; try
                            // the next ready process on it.
                        }
                    }
                }
            }

            // All processes finished without a winner?
            if winner.is_none()
                && !timed_out
                && procs
                    .iter()
                    .all(|p| matches!(p.state, ProcState::Done | ProcState::Aborted))
                && cpus.iter().all(|c| c.is_none())
                && ready.is_empty()
            {
                break 'sim;
            }
        }

        // --- Commit / failure & elimination accounting. ---
        let mut commit_overhead: u64 = 0;
        let mut elim_overhead: u64 = 0;
        let mut elim_background: u64 = 0;

        // Capture per-process dirty-page counts before any adoption folds
        // the winner's counters into the parent's.
        let per_proc_dirty: Vec<u64> = procs
            .iter()
            .map(|p| {
                if spawned[p.alt_index] {
                    self.store
                        .world_stats(p.world)
                        .map(|s| s.pages_cowed + s.pages_zero_filled)
                        .unwrap_or(0)
                } else {
                    0
                }
            })
            .collect();

        let outcome = if let Some(w) = winner {
            let dirty = per_proc_dirty[w];
            commit_overhead = self.cost.rendezvous.as_ns() + dirty * self.cost.commit_copy.as_ns();
            worlds_obs::prof::mark(
                Some(parent_world.raw()),
                None,
                None,
                worlds_obs::prof::Phase::Commit,
            );
            // Adopt the winner's world into the parent: the atomic page-map
            // replacement of §2.2.
            self.store
                .adopt(parent_world, procs[w].world)
                .expect("winner world is a child of the parent");

            let losers = procs
                .iter()
                .filter(|p| {
                    p.alt_index != procs[w].alt_index && !matches!(p.state, ProcState::Aborted)
                })
                .count() as u64;
            match spec.elim {
                ElimMode::Sync => elim_overhead = losers * self.cost.elim_sync.as_ns(),
                ElimMode::Async => elim_background = losers * self.cost.elim_async.as_ns(),
            }
            // The parent reaches alt_wait only after issuing every fork:
            // a child that synchronizes earlier waits for the rendezvous.
            now = now.max(t_setup) + commit_overhead + elim_overhead;
            total_cpu += commit_overhead + elim_overhead + elim_background;
            Outcome::Winner {
                index: procs[w].alt_index,
                label: spec.alts[procs[w].alt_index].label.clone(),
            }
        } else if timed_out {
            let losers = procs
                .iter()
                .filter(|p| !matches!(p.state, ProcState::Done | ProcState::Aborted))
                .count() as u64;
            match spec.elim {
                ElimMode::Sync => elim_overhead = losers * self.cost.elim_sync.as_ns(),
                ElimMode::Async => elim_background = losers * self.cost.elim_async.as_ns(),
            }
            now += elim_overhead;
            total_cpu += elim_overhead + elim_background;
            Outcome::TimedOut
        } else {
            Outcome::AllFailed
        };

        // --- Assemble per-alt outcomes. ---
        let mut pages_cowed_total = 0u64;
        let alts: Vec<AltOutcome> = procs
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                let spec_alt = &spec.alts[p.alt_index];
                let cowed = per_proc_dirty[pi];
                pages_cowed_total += cowed;
                let status = if winner.map(|w| procs[w].alt_index) == Some(p.alt_index) {
                    AltStatus::Won
                } else if !spawned[p.alt_index] {
                    AltStatus::NotSpawned
                } else if p.state == ProcState::Aborted
                    || (p.state == ProcState::Done && !p.guard_pass)
                {
                    AltStatus::GuardFailed
                } else if timed_out && !matches!(p.state, ProcState::Done) {
                    AltStatus::TimedOut
                } else {
                    AltStatus::Eliminated
                };
                AltOutcome {
                    label: spec_alt.label.clone(),
                    status,
                    finished_at: p.finished_at.map(VirtualTime),
                    cpu_time: VirtualTime(p.cpu_time),
                    pages_cowed: cowed,
                    isolated_time: self.isolated_time(spec_alt),
                }
            })
            .collect();

        // Eliminate the losing worlds (frees their frames).
        for p in &procs {
            if self.store.world_exists(p.world) && p.world != parent_world {
                self.store.drop_world(p.world).expect("loser world is live");
            }
        }
        self.store
            .drop_world(parent_world)
            .expect("parent world is live");

        // Assemble the execution history as observability events. The
        // Trace is a projection of the same stream ([`TraceEvent::from_obs`]),
        // and the registry — when enabled — absorbs every event into its
        // counters, histograms and sinks. Every spawned world ends in
        // exactly one of {commit, sync elimination, async elimination},
        // so `commits + eliminations == worlds_spawned` after any run.
        //
        // Each entry is (event, alt index for the trace, traced?):
        // bookkeeping eliminations of worlds that already self-aborted
        // keep the counters exact but have no trace analogue.
        let pw = parent_world.raw();
        let elim_event = |charged: bool| match spec.elim {
            ElimMode::Sync => EventKind::EliminateSync {
                overhead_ns: if charged {
                    self.cost.elim_sync.as_ns()
                } else {
                    0
                },
                site: None,
            },
            ElimMode::Async => EventKind::EliminateAsync,
        };
        let mut history: Vec<(ObsEvent, Option<usize>, bool)> = Vec::new();
        for (i, t) in spawn_times.iter().enumerate() {
            if let Some(t) = t {
                let alt = procs[i].alt_index;
                history.push((
                    ObsEvent::new(
                        EventKind::Spawn { alt: alt as u64 },
                        procs[i].world.raw(),
                        Some(pw),
                        *t,
                    ),
                    Some(alt),
                    true,
                ));
            }
        }
        if spec.guard_placement == GuardPlacement::PreSpawn {
            // Passing pre-spawn verdicts are the parent's work, stamped at
            // guard-evaluation time; failing ones are reported below via
            // their aborted pseudo-process. (InChild/AtSync verdicts
            // surface when a child finishes or aborts.)
            for i in 0..n {
                if spawned[i] {
                    history.push((
                        ObsEvent::new(
                            EventKind::GuardVerdict {
                                pass: true,
                                duration_ns: spec.alts[i].guard_cost.as_ns(),
                                alt: Some(i as u64),
                                site: None,
                            },
                            pw,
                            None,
                            guard_times[i],
                        ),
                        Some(i),
                        true,
                    ));
                }
            }
        }
        for p in procs.iter() {
            let (world, parent) = if spawned[p.alt_index] {
                (p.world.raw(), Some(pw))
            } else {
                (pw, None)
            };
            // Verdicts land where the guard actually completed (for
            // InChild that precedes the rendezvous by the whole compute
            // phase), with the modeled guard cost as their duration — so
            // the trace layer can draw guard work as a real sub-span.
            let guard_cost = spec.alts[p.alt_index].guard_cost.as_ns();
            match (&p.state, p.finished_at) {
                (ProcState::Done, Some(at)) if p.guard_pass => {
                    if spec.guard_placement != GuardPlacement::PreSpawn {
                        history.push((
                            ObsEvent::new(
                                EventKind::GuardVerdict {
                                    pass: true,
                                    duration_ns: guard_cost,
                                    alt: Some(p.alt_index as u64),
                                    site: None,
                                },
                                world,
                                parent,
                                p.guard_done_at.unwrap_or(at),
                            ),
                            Some(p.alt_index),
                            true,
                        ));
                    }
                    history.push((
                        ObsEvent::new(EventKind::Rendezvous, world, parent, at),
                        Some(p.alt_index),
                        true,
                    ));
                }
                (ProcState::Done, Some(at)) | (ProcState::Aborted, Some(at)) => {
                    history.push((
                        ObsEvent::new(
                            EventKind::GuardVerdict {
                                pass: false,
                                duration_ns: guard_cost,
                                alt: Some(p.alt_index as u64),
                                site: None,
                            },
                            world,
                            parent,
                            p.guard_done_at.unwrap_or(at),
                        ),
                        Some(p.alt_index),
                        true,
                    ));
                }
                _ => {}
            }
        }
        match &outcome {
            Outcome::Winner { index, .. } => {
                let w = winner.expect("winner outcome records the winning proc");
                history.push((
                    ObsEvent::new(
                        EventKind::Commit {
                            dirty_pages: per_proc_dirty[w],
                            overhead_ns: commit_overhead,
                            site: None,
                        },
                        procs[w].world.raw(),
                        Some(pw),
                        now,
                    ),
                    Some(*index),
                    true,
                ));
                for (pi, p) in procs.iter().enumerate() {
                    if pi == w || !spawned[p.alt_index] {
                        continue;
                    }
                    // A charged loser was still live at the rendezvous and
                    // is eliminated by the parent; an already-aborted world
                    // is reaped for free.
                    let charged = !matches!(p.state, ProcState::Aborted);
                    history.push((
                        ObsEvent::new(elim_event(charged), p.world.raw(), Some(pw), now),
                        Some(p.alt_index),
                        charged,
                    ));
                }
            }
            Outcome::TimedOut => {
                history.push((ObsEvent::new(EventKind::Timeout, pw, None, now), None, true));
                for p in &procs {
                    if !spawned[p.alt_index] {
                        continue;
                    }
                    let charged = !matches!(p.state, ProcState::Done | ProcState::Aborted);
                    history.push((
                        ObsEvent::new(elim_event(charged), p.world.raw(), Some(pw), now),
                        Some(p.alt_index),
                        charged,
                    ));
                }
            }
            Outcome::AllFailed => {
                // Nothing survived to the rendezvous; reap every spawned
                // world (bookkeeping only — the trace records the guard
                // failures themselves).
                for p in &procs {
                    if spawned[p.alt_index] {
                        history.push((
                            ObsEvent::new(elim_event(false), p.world.raw(), Some(pw), now),
                            Some(p.alt_index),
                            false,
                        ));
                    }
                }
            }
        }
        history.sort_by_key(|(ev, _, _)| ev.vt_ns);
        let mut trace = Trace::default();
        for (ev, alt, traced) in &history {
            if *traced {
                if let Some(te) = TraceEvent::from_obs(ev, *alt) {
                    trace.push(te);
                }
            }
        }
        if obs_on {
            self.store.set_clock_ns(now);
            for (ev, _, _) in &history {
                self.obs.emit(|| ev.clone());
            }
        }

        worlds_obs::prof::restore_mark(outer_mark);
        let report = SimReport {
            outcome,
            wall: VirtualTime(now),
            alts,
            spawn_overhead: VirtualTime(spawn_overhead),
            commit_overhead: VirtualTime(commit_overhead),
            elim_overhead: VirtualTime(elim_overhead),
            elim_background: VirtualTime(elim_background),
            pages_cowed: pages_cowed_total,
            total_cpu: VirtualTime(total_cpu),
        };
        (report, trace)
    }

    /// Begin (or continue) the head op of `proc`, consuming up to `quantum`
    /// nanoseconds starting at virtual time `now`. Performs real
    /// page-store traffic for page ops.
    fn execute_next_chunk(&mut self, proc: &mut Proc, quantum: u64, now: u64) -> ChunkResult {
        match proc.ops.front_mut() {
            None => ChunkResult::Ran(0),
            Some(Op::Cpu(remaining)) => {
                if *remaining > quantum {
                    *remaining -= quantum;
                    ChunkResult::Ran(quantum)
                } else {
                    let ns = *remaining;
                    proc.ops.pop_front();
                    ChunkResult::Ran(ns)
                }
            }
            Some(Op::WritePage) => {
                let vpn = proc.next_vpn;
                proc.next_vpn += 1;
                self.store
                    .write(proc.world, vpn, 0, &[0x5A])
                    .expect("child world is live");
                proc.ops.pop_front();
                ChunkResult::Ran(self.cost.page_copy.as_ns())
            }
            Some(Op::ReadPage) => {
                let vpn = proc.next_vpn.saturating_sub(1);
                let mut b = [0u8; 1];
                self.store
                    .read(proc.world, vpn, 0, &mut b)
                    .expect("child world is live");
                proc.ops.pop_front();
                ChunkResult::Ran(0)
            }
            Some(Op::Send) => {
                proc.ops.pop_front();
                ChunkResult::Ran(self.cost.message.as_ns())
            }
            Some(Op::GuardEval) => {
                proc.ops.pop_front();
                let cost = 0; // guard cost carried as a preceding Cpu op
                proc.guard_done_at = Some(now);
                if proc.guard_pass {
                    ChunkResult::Ran(cost)
                } else {
                    // Drop the rest of the script; the process aborts.
                    proc.ops.clear();
                    ChunkResult::GuardAbort(cost)
                }
            }
        }
    }
}

enum ChunkResult {
    Ran(u64),
    GuardAbort(u64),
}

/// Compile an alternative's segments into the op stream, inserting the
/// guard evaluation where the block's placement dictates.
fn compile(alt: &AltSpec, placement: GuardPlacement) -> VecDeque<Op> {
    let mut ops = VecDeque::new();
    let guard_ops = |ops: &mut VecDeque<Op>| {
        if alt.guard_cost.as_ns() > 0 {
            ops.push_back(Op::Cpu(alt.guard_cost.as_ns()));
        }
        ops.push_back(Op::GuardEval);
    };
    if placement == GuardPlacement::InChild {
        guard_ops(&mut ops);
    }
    for seg in &alt.segments {
        match seg {
            Segment::Compute(t) => {
                if t.as_ns() > 0 {
                    ops.push_back(Op::Cpu(t.as_ns()));
                }
            }
            Segment::WritePages(n) => {
                for _ in 0..*n {
                    ops.push_back(Op::WritePage);
                }
            }
            Segment::ReadPages(n) => {
                for _ in 0..*n {
                    ops.push_back(Op::ReadPage);
                }
            }
            Segment::SendMessage { .. } => ops.push_back(Op::Send),
        }
    }
    if placement == GuardPlacement::AtSync {
        guard_ops(&mut ops);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal2() -> Machine {
        Machine::new(CostModel::ideal(2))
    }

    #[test]
    fn fastest_alternative_wins() {
        let mut m = ideal2();
        let block = BlockSpec::new(vec![
            AltSpec::new("slow").compute_ms(100.0),
            AltSpec::new("fast").compute_ms(10.0),
        ]);
        let r = m.run_block(&block);
        assert_eq!(
            r.outcome,
            Outcome::Winner {
                index: 1,
                label: "fast".into()
            }
        );
        assert_eq!(
            r.wall.as_ms(),
            10.0,
            "zero-overhead machine: wall = fastest"
        );
        assert_eq!(r.alts[0].status, AltStatus::Eliminated);
        assert_eq!(r.alts[1].status, AltStatus::Won);
    }

    #[test]
    fn single_cpu_round_robin_interleaves() {
        let mut m = Machine::new(CostModel::ideal(1));
        // Two 20 ms alts on one CPU with a 10 ms quantum: RR finishes the
        // first at 30 ms (10+10+10), the second at 40 ms.
        let block = BlockSpec::new(vec![
            AltSpec::new("a").compute_ms(20.0),
            AltSpec::new("b").compute_ms(20.0),
        ]);
        let r = m.run_block(&block);
        assert_eq!(
            r.outcome,
            Outcome::Winner {
                index: 0,
                label: "a".into()
            }
        );
        assert_eq!(r.wall.as_ms(), 30.0);
    }

    #[test]
    fn fork_costs_are_serial_and_charged_to_setup() {
        let cost = CostModel::ideal(4).with_fork(VirtualTime::from_ms(5.0));
        let mut m = Machine::new(cost);
        let block = BlockSpec::new(vec![
            AltSpec::new("a").compute_ms(10.0),
            AltSpec::new("b").compute_ms(10.0),
            AltSpec::new("c").compute_ms(10.0),
        ]);
        let r = m.run_block(&block);
        // Child 0 is ready at 5 ms and finishes at 15 ms.
        assert_eq!(r.wall.as_ms(), 15.0);
        assert_eq!(r.spawn_overhead.as_ms(), 15.0);
        assert_eq!(
            r.outcome,
            Outcome::Winner {
                index: 0,
                label: "a".into()
            }
        );
    }

    #[test]
    fn guard_failure_in_child_aborts_early() {
        let mut m = ideal2();
        let block = BlockSpec::new(vec![
            AltSpec::new("bad").compute_ms(1.0).guard(false),
            AltSpec::new("good").compute_ms(50.0),
        ]);
        let r = m.run_block(&block);
        assert_eq!(
            r.outcome,
            Outcome::Winner {
                index: 1,
                label: "good".into()
            }
        );
        assert_eq!(r.alts[0].status, AltStatus::GuardFailed);
        // The bad alternative never ran its compute segment.
        assert_eq!(r.alts[0].cpu_time.as_ms(), 0.0);
    }

    #[test]
    fn at_sync_guards_run_full_script_before_failing() {
        let mut m = ideal2();
        let block = BlockSpec::new(vec![
            AltSpec::new("bad").compute_ms(30.0).guard(false),
            AltSpec::new("good").compute_ms(50.0),
        ])
        .guard_placement(GuardPlacement::AtSync);
        let r = m.run_block(&block);
        assert_eq!(
            r.outcome,
            Outcome::Winner {
                index: 1,
                label: "good".into()
            }
        );
        assert_eq!(r.alts[0].status, AltStatus::GuardFailed);
        assert_eq!(
            r.alts[0].cpu_time.as_ms(),
            30.0,
            "ran to completion before guard check"
        );
    }

    #[test]
    fn pre_spawn_guards_skip_failing_alternatives() {
        let cost = CostModel::ideal(2).with_fork(VirtualTime::from_ms(10.0));
        let mut m = Machine::new(cost);
        let block = BlockSpec::new(vec![
            AltSpec::new("bad")
                .compute_ms(1.0)
                .guard(false)
                .guard_cost(VirtualTime::from_ms(2.0)),
            AltSpec::new("good")
                .compute_ms(5.0)
                .guard_cost(VirtualTime::from_ms(2.0)),
        ])
        .guard_placement(GuardPlacement::PreSpawn);
        let r = m.run_block(&block);
        assert_eq!(r.alts[0].status, AltStatus::NotSpawned);
        // Setup: 2+2 ms guards + 10 ms fork (only one child) = 14; + 5 run.
        assert_eq!(r.wall.as_ms(), 19.0);
        assert_eq!(r.spawn_overhead.as_ms(), 10.0, "only one fork issued");
    }

    #[test]
    fn all_guards_failing_is_block_failure() {
        let mut m = ideal2();
        let block = BlockSpec::new(vec![
            AltSpec::new("a").compute_ms(1.0).guard(false),
            AltSpec::new("b").compute_ms(2.0).guard(false),
        ]);
        let r = m.run_block(&block);
        assert_eq!(r.outcome, Outcome::AllFailed);
        assert_eq!(r.failures(), 2);
        assert_eq!(r.t_best(), None);
    }

    #[test]
    fn timeout_fires_when_children_are_too_slow() {
        let mut m = ideal2();
        let block = BlockSpec::new(vec![AltSpec::new("glacial").compute_ms(1000.0)])
            .timeout(VirtualTime::from_ms(50.0));
        let r = m.run_block(&block);
        assert_eq!(r.outcome, Outcome::TimedOut);
        assert_eq!(r.wall.as_ms(), 50.0);
        assert_eq!(r.alts[0].status, AltStatus::TimedOut);
    }

    #[test]
    fn winner_beats_timeout() {
        let mut m = ideal2();
        let block = BlockSpec::new(vec![AltSpec::new("quick").compute_ms(10.0)])
            .timeout(VirtualTime::from_ms(50.0));
        let r = m.run_block(&block);
        assert_eq!(
            r.outcome,
            Outcome::Winner {
                index: 0,
                label: "quick".into()
            }
        );
        assert_eq!(r.wall.as_ms(), 10.0);
    }

    #[test]
    fn page_writes_cost_copy_time_and_hit_the_store() {
        let cost = CostModel::ideal(1).with_page_copy(VirtualTime::from_ms(2.0));
        let mut m = Machine::new(cost);
        let block = BlockSpec::new(vec![AltSpec::new("writer").write_pages(5)]);
        let r = m.run_block(&block);
        assert_eq!(r.wall.as_ms(), 10.0, "5 pages * 2 ms");
        assert_eq!(r.pages_cowed, 5);
        assert_eq!(r.alts[0].pages_cowed, 5);
    }

    #[test]
    fn sync_elimination_blocks_the_parent() {
        let cost = CostModel::att_3b2()
            .with_cpus(4)
            .with_fork(VirtualTime::ZERO);
        let mut m = Machine::new(cost.clone());
        let alts = |n: usize| -> Vec<AltSpec> {
            (0..n)
                .map(|i| AltSpec::new(format!("a{i}")).compute_ms(10.0 * (i + 1) as f64))
                .collect()
        };
        let sync = m.run_block(&BlockSpec::new(alts(4)).elim(ElimMode::Sync));
        let mut m2 = Machine::new(cost);
        let asyn = m2.run_block(&BlockSpec::new(alts(4)).elim(ElimMode::Async));
        assert!(
            sync.wall > asyn.wall,
            "sync elimination must cost response time: {} vs {}",
            sync.wall,
            asyn.wall
        );
        assert_eq!(
            sync.elim_overhead.as_ns(),
            3 * CostModel::att_3b2().elim_sync.as_ns()
        );
        assert_eq!(asyn.elim_overhead, VirtualTime::ZERO);
        assert!(asyn.elim_background > VirtualTime::ZERO);
    }

    #[test]
    fn report_ratios_match_hand_computation() {
        // Ideal 2-CPU machine, alts of 100 ms and 300 ms.
        let mut m = ideal2();
        let block = BlockSpec::new(vec![
            AltSpec::new("fast").compute_ms(100.0),
            AltSpec::new("slow").compute_ms(300.0),
        ]);
        let r = m.run_block(&block);
        assert_eq!(r.t_best().unwrap().as_ms(), 100.0);
        assert_eq!(r.t_mean().unwrap().as_ms(), 200.0);
        assert!((r.pi().unwrap() - 2.0).abs() < 1e-9);
        assert!((r.r_mu().unwrap() - 2.0).abs() < 1e-9);
        assert!(r.r_o().unwrap().abs() < 1e-9);
    }

    #[test]
    fn determinism() {
        let block = BlockSpec::new(vec![
            AltSpec::new("a").compute_ms(17.0).write_pages(3),
            AltSpec::new("b").compute_ms(23.0).write_pages(7),
            AltSpec::new("c").compute_ms(11.0).guard(false),
        ]);
        let mut m1 = Machine::new(CostModel::hp9000_350().with_cpus(2));
        let mut m2 = Machine::new(CostModel::hp9000_350().with_cpus(2));
        let r1 = m1.run_block(&block);
        let r2 = m2.run_block(&block);
        assert_eq!(r1.outcome, r2.outcome);
        assert_eq!(r1.wall, r2.wall);
        assert_eq!(r1.total_cpu, r2.total_cpu);
    }

    #[test]
    fn store_is_clean_after_run() {
        let mut m = Machine::new(CostModel::hp9000_350());
        let block = BlockSpec::new(vec![
            AltSpec::new("a").write_pages(10),
            AltSpec::new("b").write_pages(20),
        ]);
        let _ = m.run_block(&block);
        assert_eq!(m.store().world_count(), 0, "all worlds released");
        assert_eq!(m.store().live_frames(), 0, "no leaked frames");
    }

    #[test]
    fn superlinear_speedup_with_variance_and_low_overhead() {
        // §3.3: "with sufficient variance, and small enough overhead, N
        // processors can exhibit superlinear speedup". 4 alts, one fast.
        let mut m = Machine::new(CostModel::ideal(4));
        let block = BlockSpec::new(vec![
            AltSpec::new("a").compute_ms(1000.0),
            AltSpec::new("b").compute_ms(1000.0),
            AltSpec::new("c").compute_ms(1000.0),
            AltSpec::new("d").compute_ms(10.0),
        ]);
        let r = m.run_block(&block);
        // PI = mean/wall = 752.5/10 >> N = 4.
        assert!(r.pi().unwrap() > 4.0, "superlinear: PI = {:?}", r.pi());
    }

    #[test]
    fn more_cpus_never_hurt_response_time() {
        let block = BlockSpec::new(vec![
            AltSpec::new("a").compute_ms(40.0),
            AltSpec::new("b").compute_ms(50.0),
            AltSpec::new("c").compute_ms(60.0),
            AltSpec::new("d").compute_ms(70.0),
        ]);
        let mut prev = u64::MAX;
        for cpus in 1..=4 {
            let mut m = Machine::new(CostModel::ideal(cpus));
            let r = m.run_block(&block);
            assert!(r.wall.as_ns() <= prev, "wall with {cpus} cpus regressed");
            prev = r.wall.as_ns();
        }
    }

    #[test]
    fn message_segments_cost_message_time() {
        let mut cost = CostModel::ideal(1);
        cost.message = VirtualTime::from_ms(3.0);
        let mut m = Machine::new(cost);
        let block = BlockSpec::new(vec![AltSpec::new("chatty")
            .send_message(64)
            .send_message(64)]);
        let r = m.run_block(&block);
        assert_eq!(r.wall.as_ms(), 6.0);
    }

    #[test]
    fn costly_guard_abort_does_not_strand_waiting_siblings() {
        // One CPU: the failing guard (2 ms) runs first; when its abort
        // completes, the waiting sibling must still be dispatched.
        let mut m = Machine::new(CostModel::ideal(1));
        let block = BlockSpec::new(vec![
            AltSpec::new("bad")
                .guard(false)
                .guard_cost(VirtualTime::from_ms(2.0))
                .compute_ms(1.0),
            AltSpec::new("good").compute_ms(5.0),
        ]);
        let r = m.run_block(&block);
        assert_eq!(
            r.outcome,
            Outcome::Winner {
                index: 1,
                label: "good".into()
            }
        );
        assert_eq!(
            r.wall.as_ms(),
            7.0,
            "2 ms guard abort + 5 ms winner on one CPU"
        );
    }

    #[test]
    fn trace_records_the_execution_history() {
        let mut m = Machine::new(CostModel::ideal(2).with_fork(VirtualTime::from_ms(1.0)));
        let block = BlockSpec::new(vec![
            AltSpec::new("bad").compute_ms(1.0).guard(false),
            AltSpec::new("slow").compute_ms(50.0),
            AltSpec::new("fast").compute_ms(5.0),
        ]);
        let (report, trace) = m.run_block_traced(&block);
        assert_eq!(
            report.outcome,
            Outcome::Winner {
                index: 2,
                label: "fast".into()
            }
        );
        assert_eq!(trace.winner(), Some(2));
        // Three spawns, one guard failure, one sync, one commit, one
        // elimination (the slow sibling).
        use crate::trace::TraceEvent as E;
        let spawns = trace
            .events()
            .iter()
            .filter(|e| matches!(e, E::Spawned { .. }))
            .count();
        assert_eq!(spawns, 3);
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, E::GuardFailed { alt: 0, .. })));
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, E::Synchronized { alt: 2, .. })));
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, E::Eliminated { alt: 1, .. })));
        // Time-ordered and renderable.
        let times: Vec<u64> = trace.events().iter().map(|e| e.at().as_ns()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(trace.render().contains("COMMIT"));
    }

    #[test]
    fn trace_records_timeout_and_survivor_elimination() {
        let mut m = Machine::new(CostModel::ideal(1));
        let block = BlockSpec::new(vec![AltSpec::new("hang").compute_ms(1e6)])
            .timeout(VirtualTime::from_ms(10.0));
        let (report, trace) = m.run_block_traced(&block);
        assert_eq!(report.outcome, Outcome::TimedOut);
        use crate::trace::TraceEvent as E;
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, E::TimedOut { .. })));
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, E::Eliminated { alt: 0, .. })));
        assert_eq!(trace.winner(), None);
    }

    #[test]
    fn isolated_time_excludes_speculation_costs() {
        let m = Machine::new(CostModel::att_3b2());
        let alt = AltSpec::new("x")
            .compute_ms(10.0)
            .write_pages(100)
            .guard_cost(VirtualTime::from_ms(2.0));
        // Writes cost nothing sequentially; guard cost counts.
        assert_eq!(m.isolated_time(&alt).as_ms(), 12.0);
    }
}
