//! The session manager: admission, accounting, fairness, lineage.
//!
//! One [`SessionManager`] multiplexes every tenant onto a single
//! shared [`PageStore`], [`Executor`] and [`Reaper`]. Each session is
//! a named root world plus a ledger of the speculative worlds forked
//! on its behalf:
//!
//! * **Admission** — `open` is refused with [`SessionError::Overloaded`]
//!   past the session cap; `spawn` is refused with
//!   [`SessionError::LimitExceeded`] when it would bust the session's
//!   [`ResourceLimits`], and with `Overloaded` when the tenant's fair
//!   queue is full (backpressure, never blocking the wire thread
//!   indefinitely).
//! * **Fairness** — spawns are released through a
//!   [`FairScheduler`] keyed by session id, so a tenant fanning out
//!   thousands of worlds cannot starve a light one (deficit
//!   round-robin; see `worlds-exec::fair`). An uncontended spawn runs
//!   on the connection thread that read it.
//! * **Exactly-one-commit** — `commit` adopts the chosen world into
//!   the session root and hands every sibling to the reaper. A second
//!   commit without new spawns finds no world and is refused.
//! * **Lineage** — `fork` opens a *child session* rooted at a fork of
//!   the parent's root; `close(adopt=true)` folds the child's
//!   committed state back into the parent wholesale,
//!   `close(adopt=false)` discards it. Closing a parent closes its
//!   children (discarding them).
//!
//! Teardown is total: `close` purges the session's queued spawns,
//! drains its in-flight ones, then releases every world it owned —
//! a tenant that disappears mid-speculation leaves nothing behind.

use crate::limits::{ResourceLimits, ResourceUsage};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use worlds::Speculation;
use worlds_exec::{Executor, FairPolicy, FairScheduler, Reaper};
use worlds_net::nack;
use worlds_obs::Registry;
use worlds_pagestore::{PageStore, WorldId};
use worlds_telemetry::SessionReport;

/// Front-door wide knobs, distinct from the per-session
/// [`ResourceLimits`] a tenant negotiates at `open`.
#[derive(Debug, Clone, Copy)]
pub struct ServerPolicy {
    /// Sessions admitted at once (children count). Further opens are
    /// refused `Overloaded`.
    pub max_sessions: usize,
    /// The deficit round-robin policy spawns are released under.
    pub fair: FairPolicy,
    /// Cap on the *real* time one spawn may burn simulating its
    /// declared `spin_ns` (the vt ledger still charges the declared
    /// amount). Protects the shared pool from a tenant declaring an
    /// hour of work per spawn.
    pub spin_cap_ns: u64,
}

impl Default for ServerPolicy {
    fn default() -> ServerPolicy {
        ServerPolicy {
            max_sessions: 4096,
            fair: FairPolicy::default(),
            spin_cap_ns: 10_000_000, // 10ms
        }
    }
}

/// Why the manager refused an operation. Each variant maps onto one
/// wire [`nack`] code via [`SessionError::nack_code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The front door (session cap, fair queue, reaper) is saturated.
    /// Back off and retry; nothing about the request was wrong.
    Overloaded(String),
    /// The request was well-formed but would bust the session's own
    /// [`ResourceLimits`] contract. Retrying without releasing
    /// resources will fail again.
    LimitExceeded(String),
    /// No such session (never opened, or already closed).
    UnknownSession(u64),
    /// The named world is not one of the session's live speculative
    /// worlds (wrong id, already committed, or already eliminated).
    NoSuchWorld(u64),
    /// Malformed request (bad name, self-referential fork, ...).
    BadRequest(String),
    /// The page store refused an operation the manager expected to
    /// succeed; carries the store's diagnosis.
    Store(String),
}

impl SessionError {
    /// The wire code a front door Nacks this error with.
    pub fn nack_code(&self) -> u32 {
        match self {
            SessionError::Overloaded(_) => nack::OVERLOADED,
            SessionError::LimitExceeded(_) => nack::LIMIT_EXCEEDED,
            SessionError::UnknownSession(_) => nack::UNKNOWN_SESSION,
            SessionError::NoSuchWorld(_) => nack::NO_SUCH_WORLD,
            SessionError::BadRequest(_) => nack::BAD_REQUEST,
            SessionError::Store(_) => nack::STORE,
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Overloaded(what) => write!(f, "overloaded: {what}"),
            SessionError::LimitExceeded(what) => write!(f, "limit exceeded: {what}"),
            SessionError::UnknownSession(id) => write!(f, "unknown session {id}"),
            SessionError::NoSuchWorld(w) => write!(f, "world {w} is not live in this session"),
            SessionError::BadRequest(what) => write!(f, "bad request: {what}"),
            SessionError::Store(what) => write!(f, "store: {what}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Lifetime front-door counters, for benches and smoke assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerTotals {
    /// Sessions ever admitted (children count).
    pub opened: u64,
    /// Sessions fully closed.
    pub closed: u64,
    /// Worlds committed into session roots.
    pub committed: u64,
    /// Refusals with `Overloaded` (session cap or fair-queue full).
    pub rejected_overloaded: u64,
    /// Refusals with `LimitExceeded` (a session busting its contract).
    pub rejected_limit: u64,
}

struct SessState {
    closed: bool,
    /// Live speculative worlds → frames charged to them (the private
    /// frames their spawn materialised).
    worlds: HashMap<u64, u64>,
    children: Vec<u64>,
}

struct Session {
    id: u64,
    name: String,
    /// Parent session id for lineage forks; 0 for top-level sessions.
    parent: u64,
    limits: ResourceLimits,
    root: WorldId,
    state: Mutex<SessState>,
    vt_spent: AtomicU64,
    spawns: AtomicU64,
    commits: AtomicU64,
    rejected: AtomicU64,
}

struct Inner {
    store: PageStore,
    obs: Registry,
    fair: FairScheduler,
    reaper: Reaper,
    policy: ServerPolicy,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_id: AtomicU64,
    opened: AtomicU64,
    closed: AtomicU64,
    committed: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_limit: AtomicU64,
}

/// The multi-tenant session layer over one shared store. Cheap to
/// clone; all clones share state.
#[derive(Clone)]
pub struct SessionManager {
    inner: Arc<Inner>,
}

impl SessionManager {
    /// A manager multiplexing sessions onto `store` and `exec`, with
    /// commit losers eliminated through `reaper`.
    pub fn new(
        store: PageStore,
        obs: Registry,
        exec: Executor,
        reaper: Reaper,
        policy: ServerPolicy,
    ) -> SessionManager {
        let fair = FairScheduler::new(exec, obs.clone(), policy.fair);
        SessionManager {
            inner: Arc::new(Inner {
                store,
                obs,
                fair,
                reaper,
                policy,
                sessions: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                opened: AtomicU64::new(0),
                closed: AtomicU64::new(0),
                committed: AtomicU64::new(0),
                rejected_overloaded: AtomicU64::new(0),
                rejected_limit: AtomicU64::new(0),
            }),
        }
    }

    /// A manager on the process-global executor and a private reaper.
    pub fn with_defaults(store: PageStore, obs: Registry, policy: ServerPolicy) -> SessionManager {
        SessionManager::new(store, obs, Executor::global(), Reaper::new(64), policy)
    }

    /// The shared store sessions live in.
    pub fn store(&self) -> &PageStore {
        &self.inner.store
    }

    /// Admit a named session with its resource contract. Returns the
    /// session id (ids start at 1; 0 is reserved for "no parent").
    pub fn open(&self, name: &str, limits: ResourceLimits) -> Result<u64, SessionError> {
        self.admit(name, limits, 0)
    }

    /// Open a *child* session rooted at a fork of `parent`'s current
    /// root. The child inherits the parent's limits; its whole lineage
    /// is later adopted or discarded wholesale by `close`.
    pub fn fork(&self, parent: u64, name: &str) -> Result<u64, SessionError> {
        let parent_sess = self.lookup(parent)?;
        let child = self.admit(name, parent_sess.limits, parent)?;
        let mut st = parent_sess.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            // Lost the race with close: unwind the child.
            drop(st);
            let _ = self.close(child, false);
            return Err(SessionError::UnknownSession(parent));
        }
        st.children.push(child);
        Ok(child)
    }

    fn admit(&self, name: &str, limits: ResourceLimits, parent: u64) -> Result<u64, SessionError> {
        if name.is_empty() || name.len() > 128 {
            return Err(SessionError::BadRequest(format!(
                "session name must be 1..=128 bytes, got {}",
                name.len()
            )));
        }
        let inner = &self.inner;
        let mut sessions = inner.sessions.lock().unwrap_or_else(|e| e.into_inner());
        if sessions.len() >= inner.policy.max_sessions {
            inner.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(SessionError::Overloaded(format!(
                "session cap ({}) reached",
                inner.policy.max_sessions
            )));
        }
        let root = if parent == 0 {
            inner.store.create_world()
        } else {
            let parent_root = sessions
                .get(&parent)
                .ok_or(SessionError::UnknownSession(parent))?
                .root;
            inner
                .store
                .fork_world(parent_root)
                .map_err(|e| SessionError::Store(e.to_string()))?
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        sessions.insert(
            id,
            Arc::new(Session {
                id,
                name: name.to_string(),
                parent,
                limits,
                root,
                state: Mutex::new(SessState {
                    closed: false,
                    worlds: HashMap::new(),
                    children: Vec::new(),
                }),
                vt_spent: AtomicU64::new(0),
                spawns: AtomicU64::new(0),
                commits: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
            }),
        );
        inner.opened.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    fn lookup(&self, id: u64) -> Result<Arc<Session>, SessionError> {
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
            .ok_or(SessionError::UnknownSession(id))
    }

    /// Fork one speculative world off the session root, apply `writes`
    /// to it, and charge `spin_ns` of declared virtual time, then return
    /// the world id for a later `commit`. The work is admitted through
    /// the fair scheduler's `call`: with a slot free it runs right here
    /// on the caller's (connection) thread; with every slot taken it
    /// queues behind the DRR pass and this call blocks until it has run
    /// (that *is* the backpressure a heavy tenant feels).
    pub fn spawn(
        &self,
        id: u64,
        spin_ns: u64,
        writes: &[(u64, Vec<u8>)],
    ) -> Result<u64, SessionError> {
        let inner = &self.inner;
        let sess = self.lookup(id)?;
        let world = {
            let mut st = sess.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.closed {
                return Err(SessionError::UnknownSession(id));
            }
            // Every axis is checked before the fork: a refused spawn
            // costs the store nothing.
            let live = st.worlds.len() as u64;
            if !ResourceLimits::axis_allows(sess.limits.max_live_worlds, live + 1) {
                return Err(self.refuse_limit(
                    &sess,
                    format!(
                        "session {id} at {live}/{} live worlds",
                        sess.limits.max_live_worlds
                    ),
                ));
            }
            let spent = sess.vt_spent.load(Ordering::Relaxed);
            if !ResourceLimits::axis_allows(sess.limits.vt_budget_ns, spent.saturating_add(spin_ns))
            {
                return Err(self.refuse_limit(
                    &sess,
                    format!(
                        "session {id} vt budget exhausted ({spent} + {spin_ns} > {})",
                        sess.limits.vt_budget_ns
                    ),
                ));
            }
            if sess.limits.max_resident_frames != 0 {
                let resident = self.resident(&sess, &st);
                let projected = resident.saturating_add(writes.len() as u64);
                if !ResourceLimits::axis_allows(sess.limits.max_resident_frames, projected) {
                    return Err(self.refuse_limit(
                        &sess,
                        format!(
                            "session {id} at {resident} resident frames, spawn adds up to {}",
                            writes.len()
                        ),
                    ));
                }
            }
            let world = inner
                .store
                .fork_world(sess.root)
                .map_err(|e| SessionError::Store(e.to_string()))?;
            // Registered before the task is queued so close() can
            // release it even if the task never runs.
            st.worlds.insert(world.raw(), 0);
            // Burn the declared budget at admission, in the lock hold
            // that checked it: a concurrent spawn sees the charge even
            // while this one runs, and a tenant cannot dodge its
            // contract by keeping work queued. Refunded if refused below.
            sess.vt_spent.fetch_add(spin_ns, Ordering::Relaxed);
            world
        };

        let store = inner.store.clone();
        let writes = writes.to_vec();
        let spin = spin_ns.min(inner.policy.spin_cap_ns);
        let task = move || -> Result<u64, String> {
            for (vpn, bytes) in &writes {
                store
                    .write(world, *vpn, 0, bytes)
                    .map_err(|e| e.to_string())?;
            }
            if spin > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(spin));
            }
            store
                .resident_frames_of(world)
                .map(|r| r.private)
                .map_err(|e| e.to_string())
        };
        let ran = match inner.fair.call(id, spin_ns.max(1), task) {
            Ok(ran) => ran,
            Err(sat) => {
                sess.vt_spent.fetch_sub(spin_ns, Ordering::Relaxed);
                let mut st = sess.state.lock().unwrap_or_else(|e| e.into_inner());
                st.worlds.remove(&world.raw());
                drop(st);
                let _ = inner.store.drop_world(world);
                sess.rejected.fetch_add(1, Ordering::Relaxed);
                inner.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                return Err(SessionError::Overloaded(sat.to_string()));
            }
        };
        sess.spawns.fetch_add(1, Ordering::Relaxed);

        let mut st = sess.state.lock().unwrap_or_else(|e| e.into_inner());
        match ran {
            // Purged before it ran, or ran and then lost its world to a
            // close underneath it: report the teardown, not success.
            None => Err(SessionError::UnknownSession(id)),
            Some(Ok(charge)) => match st.worlds.get_mut(&world.raw()) {
                None => Err(SessionError::UnknownSession(id)),
                Some(slot) => {
                    *slot = charge;
                    Ok(world.raw())
                }
            },
            Some(Err(store_err)) => {
                if st.worlds.remove(&world.raw()).is_some() {
                    drop(st);
                    let _ = inner.store.drop_world(world);
                }
                Err(SessionError::Store(store_err))
            }
        }
    }

    fn refuse_limit(&self, sess: &Session, detail: String) -> SessionError {
        sess.rejected.fetch_add(1, Ordering::Relaxed);
        self.inner.rejected_limit.fetch_add(1, Ordering::Relaxed);
        SessionError::LimitExceeded(detail)
    }

    /// Frames currently charged to the session: its root's resident
    /// frames plus the private frames of each live speculative world.
    /// (Frames a spec world still shares with the root are counted
    /// once, through the root.)
    fn resident(&self, sess: &Session, st: &SessState) -> u64 {
        let root = self
            .inner
            .store
            .resident_frames_of(sess.root)
            .map(|r| r.total())
            .unwrap_or(0);
        root + st.worlds.values().sum::<u64>()
    }

    /// Commit `world` into the session root — the paper's `alt_wait`
    /// rendezvous, per tenant. Every sibling world is handed to the
    /// reaper; a second commit without new spawns finds no world and
    /// is refused, which is what makes commits exactly-one per round.
    pub fn commit(&self, id: u64, world: u64) -> Result<(), SessionError> {
        let inner = &self.inner;
        let sess = self.lookup(id)?;
        let losers: Vec<WorldId> = {
            let mut st = sess.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.closed {
                return Err(SessionError::UnknownSession(id));
            }
            if st.worlds.remove(&world).is_none() {
                return Err(SessionError::NoSuchWorld(world));
            }
            st.worlds
                .drain()
                .map(|(w, _)| WorldId::from_raw(w))
                .collect()
        };
        if let Err(e) = inner.store.adopt(sess.root, WorldId::from_raw(world)) {
            // The chosen world is gone either way; losers still go.
            inner.reaper.enqueue_many(&inner.store, &losers);
            return Err(SessionError::Store(e.to_string()));
        }
        inner.reaper.enqueue_many(&inner.store, &losers);
        sess.commits.fetch_add(1, Ordering::Relaxed);
        inner.committed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Close a session and release everything it owns: queued spawns
    /// are purged, in-flight ones drained, every speculative world
    /// dropped, children closed (discarded). With `adopt`, the
    /// session's root — carrying everything it ever committed — is
    /// folded into its parent's root before release; without, it is
    /// dropped wholesale.
    pub fn close(&self, id: u64, adopt: bool) -> Result<(), SessionError> {
        let inner = &self.inner;
        let sess = self.lookup(id)?;
        let children: Vec<u64> = {
            let mut st = sess.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.closed {
                return Err(SessionError::UnknownSession(id));
            }
            st.closed = true;
            std::mem::take(&mut st.children)
        };
        // Children first, depth-first: a dying parent takes its
        // lineage with it. (Adopting into a closing parent would be
        // adopting into a world about to die.)
        for child in children {
            let _ = self.close(child, false);
        }
        // Queued spawns never run; in-flight ones finish against
        // still-live worlds, then we sweep.
        inner.fair.purge(id);
        inner.fair.drain(id);
        let mut doomed: Vec<WorldId> = {
            let mut st = sess.state.lock().unwrap_or_else(|e| e.into_inner());
            st.worlds
                .drain()
                .map(|(w, _)| WorldId::from_raw(w))
                .collect()
        };
        let adopted = adopt
            && sess.parent != 0
            && match self.lookup(sess.parent) {
                Ok(parent) => {
                    let parent_alive = !parent
                        .state
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .closed;
                    parent_alive && inner.store.adopt(parent.root, sess.root).is_ok()
                }
                Err(_) => false,
            };
        if !adopted {
            doomed.push(sess.root);
        }
        // Synchronous release: when close() returns, the tenant's
        // frames are gone — the property the teardown tests pin.
        inner.store.drop_worlds(&doomed);
        inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id);
        inner.fair.forget(id);
        inner.closed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The session's root world — where its committed state lives.
    /// For embedders reading results back out of the shared store.
    pub fn root_of(&self, id: u64) -> Result<WorldId, SessionError> {
        Ok(self.lookup(id)?.root)
    }

    /// A session's live accounting snapshot.
    pub fn usage(&self, id: u64) -> Result<ResourceUsage, SessionError> {
        let sess = self.lookup(id)?;
        let st = sess.state.lock().unwrap_or_else(|e| e.into_inner());
        Ok(ResourceUsage {
            live_worlds: st.worlds.len() as u64,
            resident_frames: self.resident(&sess, &st),
            vt_spent_ns: sess.vt_spent.load(Ordering::Relaxed),
            spawns: sess.spawns.load(Ordering::Relaxed),
            commits: sess.commits.load(Ordering::Relaxed),
            rejected: sess.rejected.load(Ordering::Relaxed),
        })
    }

    /// A [`Speculation`] view over the session's root world, for
    /// embedding the full alt-block API in-process beside the wire
    /// plane. The view shares the session's store and world; its name
    /// table is fresh (see [`Speculation::in_store`]).
    pub fn speculation(&self, id: u64) -> Result<Speculation, SessionError> {
        let sess = self.lookup(id)?;
        if sess.state.lock().unwrap_or_else(|e| e.into_inner()).closed {
            return Err(SessionError::UnknownSession(id));
        }
        Ok(Speculation::in_store(&self.inner.store, sess.root))
    }

    /// One telemetry row per live session, id order — what a front
    /// door answers `worlds-top --sessions` with.
    pub fn reports(&self) -> Vec<SessionReport> {
        let sessions: Vec<Arc<Session>> = {
            let map = self
                .inner
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            map.values().cloned().collect()
        };
        let mut rows: Vec<SessionReport> = sessions
            .iter()
            .map(|sess| {
                let st = sess.state.lock().unwrap_or_else(|e| e.into_inner());
                let stats = self.inner.fair.stats(sess.id);
                SessionReport {
                    session: sess.id,
                    name: sess.name.clone(),
                    parent: sess.parent,
                    live_worlds: st.worlds.len() as u64,
                    resident_frames: self.resident(sess, &st),
                    vt_spent_ns: sess.vt_spent.load(Ordering::Relaxed),
                    vt_budget_ns: sess.limits.vt_budget_ns,
                    spawns: sess.spawns.load(Ordering::Relaxed),
                    commits: sess.commits.load(Ordering::Relaxed),
                    rejected: sess.rejected.load(Ordering::Relaxed),
                    queued: stats.queued as u64,
                }
            })
            .collect();
        rows.sort_by_key(|r| r.session);
        rows
    }

    /// Sessions currently admitted.
    pub fn session_count(&self) -> usize {
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Lifetime front-door counters.
    pub fn totals(&self) -> ServerTotals {
        let inner = &self.inner;
        ServerTotals {
            opened: inner.opened.load(Ordering::Relaxed),
            closed: inner.closed.load(Ordering::Relaxed),
            committed: inner.committed.load(Ordering::Relaxed),
            rejected_overloaded: inner.rejected_overloaded.load(Ordering::Relaxed),
            rejected_limit: inner.rejected_limit.load(Ordering::Relaxed),
        }
    }

    /// The registry the manager instruments through.
    pub fn obs(&self) -> &Registry {
        &self.inner.obs
    }

    /// Block until the reaper has eliminated every enqueued loser —
    /// test hook for asserting the store is back to baseline.
    pub fn quiesce(&self) {
        self.inner.reaper.drain();
    }
}
